/**
 * @file
 * Scenario-layer tests: policy-descriptor parsing, registry
 * completeness (every shipped policy constructible from its name),
 * SibylConfig parameter application, ScenarioSpec JSON round-trip,
 * lowering to RunSpecs (including declarative device overrides), and
 * the migrated-bench contract — a fig8-style sweep built from a
 * scenario is bit-exact between 1-thread and multi-thread execution
 * and identical to the same runs built field by field.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/sibyl_policy.hh"
#include "device/fault_model.hh"
#include "policies/static_policies.hh"
#include "scenario/json.hh"
#include "scenario/policy_factory.hh"
#include "scenario/scenario_spec.hh"
#include "sim/experiment.hh"

namespace sibyl::scenario
{
namespace
{

// ------------------------- PolicyDesc parsing ------------------------

TEST(PolicyDesc, ParsesNameAndParams)
{
    const auto plain = PolicyDesc::parse("CDE");
    EXPECT_EQ(plain.name, "CDE");
    EXPECT_TRUE(plain.params.empty());
    EXPECT_EQ(plain.raw, "CDE");

    const auto p = PolicyDesc::parse("Sibyl{gamma=0.5,hidden=20x30}");
    EXPECT_EQ(p.name, "Sibyl");
    ASSERT_EQ(p.params.size(), 2u);
    EXPECT_EQ(p.params[0].first, "gamma");
    EXPECT_EQ(p.params[0].second, "0.5");
    EXPECT_EQ(*p.find("hidden"), "20x30");
    EXPECT_EQ(p.find("nope"), nullptr);
    EXPECT_EQ(p.raw, "Sibyl{gamma=0.5,hidden=20x30}");
}

TEST(PolicyDesc, RejectsMalformedDescriptors)
{
    EXPECT_THROW(PolicyDesc::parse("Sibyl{gamma=0.5"),
                 std::invalid_argument);
    EXPECT_THROW(PolicyDesc::parse("{gamma=0.5}"),
                 std::invalid_argument);
    EXPECT_THROW(PolicyDesc::parse("Sibyl{gamma}"),
                 std::invalid_argument);
    EXPECT_THROW(PolicyDesc::parse(""), std::invalid_argument);
}

// --------------------------- the registry ----------------------------

TEST(PolicyFactory, EveryShippedPolicyResolvesByName)
{
    const auto &f = PolicyFactory::instance();
    const std::vector<std::string> shipped = {
        "Slow-Only",     "Fast-Only",
        "CDE",           "HPS",
        "Archivist",     "RNN-HSS",
        "Oracle",        "Heuristic-Tri-Hybrid",
        "Heuristic-Multi-Tier",
        "Sibyl",         "Sibyl-C51",
        "Sibyl-DQN",     "Sibyl-QTable",
    };
    for (const auto &name : shipped) {
        SCOPED_TRACE(name);
        EXPECT_TRUE(f.resolvable(name));
        auto policy = f.make(name, /*numDevices=*/4);
        ASSERT_NE(policy, nullptr);
        EXPECT_EQ(policy->name(), name);
    }
    // The standard figure lineup is a subset of the registry, so no
    // bench can name a policy the scenario layer cannot build.
    for (const auto &name : sim::standardPolicyLineup())
        EXPECT_TRUE(f.resolvable(name)) << name;
    // The listing is sorted and covers the shipped set.
    const auto infos = f.policies();
    EXPECT_GE(infos.size(), shipped.size());
    for (std::size_t i = 1; i < infos.size(); i++)
        EXPECT_LT(infos[i - 1].name, infos[i].name);
}

TEST(PolicyFactory, SibylPrefixNamesKeepLegacyBehavior)
{
    auto policy = PolicyFactory::instance().make("Sibyl_Opt", 2);
    EXPECT_EQ(policy->name(), "Sibyl_Opt");
    ASSERT_NE(dynamic_cast<core::SibylPolicy *>(policy.get()), nullptr);
}

TEST(PolicyFactory, DescriptorParamsReachSibylConfig)
{
    auto policy = PolicyFactory::instance().make(
        "Sibyl{gamma=0.25,lr=0.01,hidden=8x9,agent=dqn,doubleDqn=1,"
        "features=size|count,intervalBins=16,reward=endurance,"
        "enduranceWeight=0.5,explore=boltzmann,temperature=0.3,"
        "bufferCapacity=77}",
        2);
    auto *sibyl = dynamic_cast<core::SibylPolicy *>(policy.get());
    ASSERT_NE(sibyl, nullptr);
    const auto &cfg = sibyl->config();
    EXPECT_DOUBLE_EQ(cfg.gamma, 0.25);
    EXPECT_DOUBLE_EQ(cfg.learningRate, 0.01);
    EXPECT_EQ(cfg.hidden, (std::vector<std::size_t>{8, 9}));
    EXPECT_EQ(cfg.agentKind, core::AgentKind::Dqn);
    EXPECT_TRUE(cfg.doubleDqn);
    EXPECT_EQ(cfg.features.mask, core::kFeatSize | core::kFeatCount);
    EXPECT_EQ(cfg.features.intervalBins, 16u);
    EXPECT_EQ(cfg.reward.kind, core::RewardKind::EnduranceAware);
    EXPECT_DOUBLE_EQ(cfg.reward.enduranceWeight, 0.5);
    EXPECT_EQ(cfg.exploration.kind, rl::ExplorationKind::Boltzmann);
    EXPECT_DOUBLE_EQ(cfg.exploration.temperature, 0.3);
    EXPECT_EQ(cfg.bufferCapacity, 77u);

    auto qt = PolicyFactory::instance().make("Sibyl-QTable", 2);
    auto *qtp = dynamic_cast<core::SibylPolicy *>(qt.get());
    ASSERT_NE(qtp, nullptr);
    EXPECT_EQ(qtp->config().agentKind, core::AgentKind::QTable);
    EXPECT_DOUBLE_EQ(qtp->config().learningRate, 0.2);

    // The 0.2 is only a default: a base config whose lr was changed
    // (e.g. scenario sibylParams) stays authoritative.
    core::SibylConfig tuned;
    tuned.learningRate = 0.001;
    auto qtTuned =
        PolicyFactory::instance().make("Sibyl-QTable", 2, tuned);
    EXPECT_DOUBLE_EQ(dynamic_cast<core::SibylPolicy *>(qtTuned.get())
                         ->config()
                         .learningRate,
                     0.001);
}

TEST(PolicyFactory, ErrorsAreDiagnosable)
{
    const auto &f = PolicyFactory::instance();
    try {
        f.make("NoSuchPolicy", 2);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("NoSuchPolicy"), std::string::npos);
        // The message lists the registry so the fix is copy-paste.
        EXPECT_NE(msg.find("Sibyl"), std::string::npos);
        EXPECT_NE(msg.find("CDE"), std::string::npos);
    }
    EXPECT_THROW(f.make("Sibyl{noSuchKnob=1}", 2),
                 std::invalid_argument);
    // Training has one, synchronous cadence: asyncTraining is an
    // unknown parameter, and the error names it.
    try {
        f.make("Sibyl{asyncTraining=1}", 2);
        ADD_FAILURE() << "Sibyl{asyncTraining=1} was accepted";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("asyncTraining"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_THROW(f.make("Sibyl{gamma=abc}", 2), std::invalid_argument);
    EXPECT_THROW(f.make("CDE{gamma=0.5}", 2), std::invalid_argument);
    EXPECT_THROW(f.make("Oracle{x=1}", 2), std::invalid_argument);
    // Unsigned params reject sign/overflow/truncation instead of
    // silently wrapping (a negative batchSize must not become 4e9).
    EXPECT_THROW(f.make("Sibyl{batchSize=-4}", 2),
                 std::invalid_argument);
    EXPECT_THROW(f.make("Sibyl{batchSize=99999999999}", 2),
                 std::invalid_argument);
    EXPECT_THROW(f.make("Sibyl{bufferCapacity="
                        "99999999999999999999999}",
                        2),
                 std::invalid_argument);
}

TEST(PolicyFactory, RuntimeRegistrationExtendsAndShadows)
{
    auto &f = PolicyFactory::instance();
    f.registerPolicy(
        "Test-Custom", "test-only",
        [](const PolicyDesc &, std::uint32_t,
           const core::SibylConfig &) {
            return std::make_unique<policies::SlowOnlyPolicy>();
        });
    EXPECT_TRUE(f.resolvable("Test-Custom"));
    // sim::makePolicy is a wrapper over the same registry, so custom
    // policies are immediately usable in RunSpecs.
    auto viaSim = sim::makePolicy("Test-Custom", 2);
    EXPECT_EQ(viaSim->name(), "Slow-Only");

    // Re-registration replaces (tests/examples may shadow built-ins).
    f.registerPolicy(
        "Test-Custom", "test-only v2",
        [](const PolicyDesc &, std::uint32_t,
           const core::SibylConfig &) {
            return std::make_unique<policies::FastOnlyPolicy>();
        });
    EXPECT_EQ(f.make("Test-Custom", 2)->name(), "Fast-Only");
}

// ----------------------------- JSON model ----------------------------

TEST(Json, ParseAndDumpBasics)
{
    const auto v = jsonParse(
        "{\"a\": [1, 2.5, \"s\\n\"], \"b\": true, \"c\": null}");
    ASSERT_TRUE(v.isObject());
    const auto *a = v.find("a");
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a->asArray()[0].asInt(), 1);
    EXPECT_FALSE(a->asArray()[1].isIntegral());
    EXPECT_EQ(a->asArray()[2].asString(), "s\n");
    EXPECT_TRUE(v.find("b")->asBool());
    EXPECT_TRUE(v.find("c")->isNull());

    // dump() is deterministic and reparses to the same document.
    const std::string once = v.dump();
    EXPECT_EQ(jsonParse(once).dump(), once);
}

TEST(Json, FullUint64RangeRoundTrips)
{
    // Seeds are 64-bit; the whole range must survive parse -> emit ->
    // parse (a double cannot hold it, int64 loses the top half).
    const std::uint64_t big = 0xFFFFFFFFFFFFFFFFULL;
    JsonValue v = JsonValue::of(big);
    EXPECT_EQ(v.asUint(), big);
    EXPECT_EQ(jsonParse(v.dump()).asUint(), big);
    EXPECT_THROW(jsonParse(v.dump()).asInt(), std::invalid_argument);

    const auto neg = jsonParse("-9223372036854775808");
    EXPECT_EQ(neg.asInt(), std::numeric_limits<std::int64_t>::min());
    EXPECT_THROW(neg.asUint(), std::invalid_argument);

    // Out-of-range reals are a parse error, not UB; huge in-range
    // reals are non-integral, not a garbage int.
    EXPECT_THROW(jsonParse("1e999"), std::invalid_argument);
    EXPECT_FALSE(jsonParse("1e300").isIntegral());
}

TEST(Json, RejectsMalformedInput)
{
    EXPECT_THROW(jsonParse("{\"a\": }"), std::invalid_argument);
    EXPECT_THROW(jsonParse("[1, 2"), std::invalid_argument);
    EXPECT_THROW(jsonParse("{} trailing"), std::invalid_argument);
    EXPECT_THROW(jsonParse("{\"a\": 1, \"a\": 2}"),
                 std::invalid_argument);
    EXPECT_THROW(jsonParse("12x"), std::invalid_argument);
    // Type mismatches throw readable errors instead of UB.
    EXPECT_THROW(jsonParse("\"s\"").asDouble(), std::invalid_argument);
    EXPECT_THROW(jsonParse("1.5").asInt(), std::invalid_argument);
    EXPECT_THROW(jsonParse("-3").asUint(), std::invalid_argument);
}

// ------------------- randomized JSON properties -----------------------

/** Deterministic random JSON value tree (fixed-seed engine: these are
 *  property tests, not flaky fuzzing). */
JsonValue
randomTree(std::mt19937_64 &rng, int depth)
{
    // Leaves only at the bottom; containers shrink with depth.
    const int kinds = depth > 0 ? 7 : 5;
    switch (rng() % kinds) {
      case 0:
        return JsonValue::makeNull();
      case 1:
        return JsonValue::of((rng() & 1) != 0);
      case 2: // integral, anywhere in the full uint64 range
        return JsonValue::of(static_cast<std::uint64_t>(rng()));
      case 3: // integral, signed
        return JsonValue::of(static_cast<std::int64_t>(rng()));
      case 4: { // string over a hostile alphabet
        static const char alphabet[] =
            "ab\"\\\n\t\r\x01\x1f {}[]:,\xc3\xa9";
        std::string s;
        const std::size_t len = rng() % 12;
        for (std::size_t i = 0; i < len; i++)
            s += alphabet[rng() % (sizeof(alphabet) - 1)];
        return JsonValue::of(std::move(s));
      }
      case 5: {
        JsonValue a = JsonValue::array();
        const std::size_t len = rng() % 4;
        for (std::size_t i = 0; i < len; i++)
            a.push(randomTree(rng, depth - 1));
        return a;
      }
      default: {
        JsonValue o = JsonValue::object();
        const std::size_t len = rng() % 4;
        for (std::size_t i = 0; i < len; i++)
            o.set("k" + std::to_string(i) +
                      std::string(rng() % 2, '"'),
                  randomTree(rng, depth - 1));
        return o;
      }
    }
}

TEST(JsonProperty, RandomTreesDumpParseRedumpByteIdentical)
{
    // dump -> parse -> dump is a fixed point for arbitrary trees: the
    // byte-determinism contract every golden JSON comparison (merged
    // campaign results at 1 vs N threads, scenario emit) rests on.
    std::mt19937_64 rng(0xC0FFEE);
    for (int iter = 0; iter < 500; iter++) {
        const JsonValue tree = randomTree(rng, 3);
        const std::string once = tree.dump();
        JsonValue back;
        ASSERT_NO_THROW(back = jsonParse(once)) << once;
        EXPECT_EQ(back.dump(), once) << "iteration " << iter;
    }
}

TEST(JsonProperty, RandomIntegersSurviveExactly)
{
    // Integral literals round-trip with full 64-bit precision — seeds
    // live in the top half of uint64, where double would shear them.
    std::mt19937_64 rng(0x5EED);
    for (int iter = 0; iter < 2000; iter++) {
        const std::uint64_t u = rng();
        const JsonValue vu = jsonParse(JsonValue::of(u).dump());
        ASSERT_TRUE(vu.isIntegral());
        EXPECT_EQ(vu.asUint(), u);

        const std::int64_t i = static_cast<std::int64_t>(rng());
        const JsonValue vi = jsonParse(JsonValue::of(i).dump());
        ASSERT_TRUE(vi.isIntegral());
        EXPECT_EQ(vi.asInt(), i);
    }
}

TEST(JsonProperty, RandomDoublesSurviveThe17gContract)
{
    // %.17g is the shortest printf precision that round-trips every
    // finite double; random bit patterns probe the whole space
    // (denormals included), plus the classic decimal landmines.
    std::mt19937_64 rng(0xF107);
    int tested = 0;
    while (tested < 2000) {
        const std::uint64_t bits = rng();
        double d;
        std::memcpy(&d, &bits, sizeof(d));
        if (!std::isfinite(d) || d == 0.0)
            continue; // JSON has no inf/nan literal; ±0 is integral
        tested++;
        const JsonValue v = jsonParse(JsonValue::of(d).dump());
        ASSERT_TRUE(v.isNumber());
        EXPECT_EQ(v.asDouble(), d) << JsonValue::of(d).dump();
    }
    for (const double d :
         {0.1, 1.0 / 3.0, 1e-308, 5e-324,
          std::numeric_limits<double>::max(),
          std::nextafter(1.0, 2.0), 2.2250738585072011e-308}) {
        const std::string text = JsonValue::of(d).dump();
        EXPECT_EQ(jsonParse(text).asDouble(), d) << text;
        EXPECT_EQ(jsonParse(text).dump(), text) << text;
    }
}

TEST(PolicyFactoryProperty, RandomGarbageNeverResolvesQuietly)
{
    // Unknown names throw (with the registry listed), malformed
    // descriptors throw — never crash, never silently build something.
    std::mt19937_64 rng(0xBAD);
    static const char alphabet[] =
        "AZaz09-_{}=,|x."; // descriptor-ish characters
    const auto &f = PolicyFactory::instance();
    for (int iter = 0; iter < 500; iter++) {
        std::string name = "No-Such-";
        const std::size_t len = rng() % 10;
        for (std::size_t i = 0; i < len; i++)
            name += alphabet[rng() % (sizeof(alphabet) - 1)];
        if (f.resolvable(name))
            continue; // astronomically unlikely, but stay honest
        try {
            f.make(name, 2);
            FAIL() << "accepted " << name;
        } catch (const std::invalid_argument &) {
        }
    }
    // Random parameter blobs on a real policy: reject, don't crash.
    for (int iter = 0; iter < 500; iter++) {
        std::string params;
        const std::size_t len = rng() % 12;
        for (std::size_t i = 0; i < len; i++)
            params += alphabet[rng() % (sizeof(alphabet) - 1)];
        const std::string desc = "Sibyl{" + params + "}";
        try {
            auto p = f.make(desc, 2);
            // The rare well-formed draw (e.g. "Sibyl{}") must still
            // produce a real Sibyl.
            ASSERT_NE(p, nullptr) << desc;
            EXPECT_NE(dynamic_cast<core::SibylPolicy *>(p.get()),
                      nullptr)
                << desc;
        } catch (const std::invalid_argument &) {
        }
    }
}

TEST(PolicyFactoryProperty, DuplicateRegistrationReplacesWithoutDuplicates)
{
    // Re-registering a name is documented to replace the entry (tests
    // and examples shadow built-ins); the listing must never grow a
    // duplicate row from it.
    auto &f = PolicyFactory::instance();
    const auto countOf = [&](const std::string &name) {
        std::size_t n = 0;
        for (const auto &info : f.policies())
            n += info.name == name ? 1 : 0;
        return n;
    };
    for (int round = 0; round < 3; round++)
        f.registerPolicy(
            "Test-Dup", "round " + std::to_string(round),
            [](const PolicyDesc &, std::uint32_t,
               const core::SibylConfig &) {
                return std::make_unique<policies::SlowOnlyPolicy>();
            });
    EXPECT_EQ(countOf("Test-Dup"), 1u);
    for (const auto &info : f.policies()) {
        if (info.name == "Test-Dup") {
            EXPECT_EQ(info.description, "round 2");
        }
    }
}

// --------------------------- ScenarioSpec -----------------------------

ScenarioSpec
fullSpec()
{
    ScenarioSpec s;
    s.name = "roundtrip";
    s.policies = {"CDE", "Sibyl{gamma=0.5,hidden=8x9}"};
    s.workloads = {"prxy_1", "hm_1"};
    s.hssConfigs = {"H&M", "H&L"};
    s.seeds = {7, 0xDEADBEEFDEADBEEFULL}; // incl. a top-half uint64
    s.mixedWorkloads = false;
    s.fastCapacityFrac = 0.05;
    s.traceLen = 1234;
    s.traceSeed = 99;
    s.timeCompress = 50.0;
    s.queueDepth = 4;
    s.recordPerRequest = true;
    s.sibylParams = {{"trainEvery", "250"}, {"epsilon", "0.01"}};
    DeviceOverride ov;
    ov.device = 0;
    ov.channels = 4;
    ov.detailedFtl = 1;
    ov.ftlPagesPerBlock = 64;
    ov.faultWindows.push_back({1000.0, 2000.0, 30.0});
    s.deviceOverrides = {ov};
    s.numThreads = 2;
    return s;
}

TEST(ScenarioSpec, JsonRoundTripIsIdentity)
{
    const ScenarioSpec s = fullSpec();
    const std::string text = emitScenarioJson(s);
    const ScenarioSpec back = parseScenarioJson(text);
    EXPECT_TRUE(back == s);
    // emit(parse(emit(s))) is byte-identical: the serialization is a
    // fixed point, so scenario files can be regenerated mechanically.
    EXPECT_EQ(emitScenarioJson(back), text);
}

TEST(ScenarioSpec, ParseDiagnosesBadInput)
{
    EXPECT_THROW(parseScenarioJson("not json"), std::invalid_argument);
    // Unknown keys are typos, not extensions.
    EXPECT_THROW(parseScenarioJson(
                     "{\"policies\": [\"CDE\"], \"workloads\": "
                     "[\"prxy_1\"], \"polcies\": []}"),
                 std::invalid_argument);
    // The two required fields.
    EXPECT_THROW(parseScenarioJson("{\"workloads\": [\"prxy_1\"]}"),
                 std::invalid_argument);
    EXPECT_THROW(parseScenarioJson("{\"policies\": [\"CDE\"]}"),
                 std::invalid_argument);
    // Ill-typed values.
    EXPECT_THROW(parseScenarioJson(
                     "{\"policies\": [\"CDE\"], \"workloads\": "
                     "[\"prxy_1\"], \"traceLen\": \"many\"}"),
                 std::invalid_argument);
}

TEST(ScenarioSpec, ReportRoundTripsAndStaysOutOfTheRuns)
{
    ScenarioSpec s = fullSpec();
    s.report = ReportSpec{"Fig. X: a title — with a dash",
                          "normalizedIops",
                          "Paper reference: 20% better\non average."};
    const std::string text = emitScenarioJson(s);
    const ScenarioSpec back = parseScenarioJson(text);
    EXPECT_TRUE(back == s);
    EXPECT_EQ(emitScenarioJson(back), text);
    // The reference is optional.
    s.report->reference.clear();
    EXPECT_TRUE(parseScenarioJson(emitScenarioJson(s)) == s);

    // Presentation only: the same runs, under the same keys.
    ScenarioSpec plain = s;
    plain.report.reset();
    const auto withReport = s.expand();
    const auto without = plain.expand();
    ASSERT_EQ(withReport.size(), without.size());
    for (std::size_t i = 0; i < without.size(); i++)
        EXPECT_EQ(sim::ParallelRunner::runKey(withReport[i]),
                  sim::ParallelRunner::runKey(without[i]));

    // Every report metric is a results-record scalar.
    for (const char *m : {"normalizedLatency", "normalizedIops",
                          "evictionFraction", "fastPlacementPreference"}) {
        EXPECT_NE(reportMetricCaption(m), nullptr) << m;
        EXPECT_NE(sim::findResultScalar(m), nullptr) << m;
    }
    EXPECT_EQ(reportMetricCaption("avgLatencyUs"), nullptr);
}

TEST(ScenarioSpec, ReportErrorsNameTheField)
{
    const auto expectError = [](const std::string &report,
                                const std::string &needle) {
        const std::string doc =
            "{\"policies\": [\"CDE\"], \"workloads\": [\"prxy_1\"], "
            "\"report\": " + report + "}";
        try {
            parseScenarioJson(doc);
            ADD_FAILURE() << "accepted " << report;
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find(needle),
                      std::string::npos)
                << e.what();
        }
    };
    expectError("{\"title\": \"t\", \"metric\": \"avgLatency\"}",
                "report.metric \"avgLatency\"");
    expectError("{\"title\": \"t\", \"metric\": \"normalizedLatency\", "
                "\"labels\": []}",
                "unknown report key \"labels\"");
    expectError("{\"title\": 3, \"metric\": \"normalizedLatency\"}",
                "report.title wants a string");
    expectError("{\"title\": \"t\"}", "report.metric \"\"");
    expectError("{\"metric\": \"normalizedLatency\"}",
                "report needs a \"title\"");
    expectError("[]", "report wants an object");
}

TEST(ScenarioSpec, RejectsMalformedFaultWindowsAtLowering)
{
    const auto doc = [](const std::string &window) {
        return "{\"policies\": [\"CDE\"], \"workloads\": "
               "[\"prxy_1\"], \"deviceOverrides\": [{\"device\": 0, "
               "\"faultWindows\": [" +
               window + "]}]}";
    };
    // A well-formed window parses.
    EXPECT_NO_THROW(parseScenarioJson(doc(
        "{\"startUs\": 100, \"endUs\": 200, "
        "\"latencyMultiplier\": 2}")));
    // Inverted and zero-length windows are named by index.
    try {
        parseScenarioJson(doc("{\"startUs\": 200, \"endUs\": 100}"));
        FAIL() << "inverted window accepted";
    } catch (const std::invalid_argument &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("faultWindows[0]"), std::string::npos)
            << what;
        EXPECT_NE(what.find("end after it starts"), std::string::npos)
            << what;
    }
    EXPECT_THROW(
        parseScenarioJson(doc("{\"startUs\": 100, \"endUs\": 100}")),
        std::invalid_argument);
    // Non-positive multipliers would otherwise abort the process deep
    // inside FaultModel mid-run; lowering rejects them up front.
    EXPECT_THROW(parseScenarioJson(
                     doc("{\"startUs\": 0, \"endUs\": 1, "
                         "\"latencyMultiplier\": 0}")),
                 std::invalid_argument);
    EXPECT_THROW(parseScenarioJson(
                     doc("{\"startUs\": 0, \"endUs\": 1, "
                         "\"latencyMultiplier\": -3}")),
                 std::invalid_argument);
}

TEST(ScenarioSpec, FaultValidationDiagnosesNonFiniteValues)
{
    // JSON cannot spell NaN, so the non-finite class is exercised on
    // the validators directly (they also back the FaultModel ctor).
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();

    device::DegradedWindow w{0.0, 10.0, 2.0};
    EXPECT_EQ(device::validateWindow(w), "");
    w.startUs = nan;
    EXPECT_NE(device::validateWindow(w).find("finite"),
              std::string::npos);
    w = {0.0, inf, 2.0};
    EXPECT_NE(device::validateWindow(w).find("finite"),
              std::string::npos);
    w = {0.0, 10.0, nan};
    EXPECT_NE(device::validateWindow(w).find("latencyMultiplier"),
              std::string::npos);

    device::FaultConfig fc;
    EXPECT_EQ(device::validateFaultConfig(fc), "");
    fc.readErrorProb = nan;
    EXPECT_NE(device::validateFaultConfig(fc).find("readErrorProb"),
              std::string::npos);
    fc = {};
    fc.writeErrorProb = 1.5;
    EXPECT_NE(device::validateFaultConfig(fc).find("[0, 1]"),
              std::string::npos);
    fc = {};
    fc.retryMultiplier = -1.0;
    EXPECT_NE(device::validateFaultConfig(fc).find("retryMultiplier"),
              std::string::npos);
    fc = {};
    fc.windows.push_back({5.0, 1.0, 2.0});
    EXPECT_NE(device::validateFaultConfig(fc).find("windows[0]"),
              std::string::npos);
}

TEST(ScenarioSpec, SibylParamsAcceptJsonScalars)
{
    const auto s = parseScenarioJson(
        "{\"policies\": [\"Sibyl\"], \"workloads\": [\"prxy_1\"], "
        "\"sibylParams\": {\"gamma\": 0.5, \"trainEvery\": 250, "
        "\"doubleDqn\": true}}");
    const auto specs = s.expand();
    ASSERT_EQ(specs.size(), 1u);
    EXPECT_DOUBLE_EQ(specs[0].sibylCfg.gamma, 0.5);
    EXPECT_EQ(specs[0].sibylCfg.trainEvery, 250u);
    EXPECT_TRUE(specs[0].sibylCfg.doubleDqn);
}

TEST(ScenarioSpec, ExpandLowersToMatrixOrderWithOverrides)
{
    ScenarioSpec s = fullSpec();
    const auto specs = s.expand();
    // hssConfig (outer) x workload x policy x seed (inner).
    ASSERT_EQ(specs.size(), 2u * 2u * 2u * 2u);
    EXPECT_EQ(specs[0].hssConfig, "H&M");
    EXPECT_EQ(specs[0].workload, "prxy_1");
    EXPECT_EQ(specs[0].policy, "CDE");
    EXPECT_EQ(specs[0].seed, 7u);
    EXPECT_EQ(specs[1].seed, 0xDEADBEEFDEADBEEFULL);
    EXPECT_EQ(specs[2].policy, "Sibyl{gamma=0.5,hidden=8x9}");
    EXPECT_EQ(specs[8].hssConfig, "H&L");
    // Base sibylParams applied to every run's SibylConfig.
    EXPECT_EQ(specs[0].sibylCfg.trainEvery, 250u);
    // Device overrides lower to a specTweak.
    ASSERT_TRUE(static_cast<bool>(specs[0].specTweak));
    auto devices = hss::makeHssConfig("H&M", 10000, 0.05);
    specs[0].specTweak(devices);
    EXPECT_EQ(devices[0].channels, 4u);
    EXPECT_TRUE(devices[0].detailedFtl);
    EXPECT_EQ(devices[0].ftlPagesPerBlock, 64u);
    ASSERT_EQ(devices[0].faults.windows.size(), 1u);
    EXPECT_DOUBLE_EQ(devices[0].faults.windows[0].latencyMultiplier,
                     30.0);

    // The overrides influence dynamics, so they are part of the run
    // identity: the same cell without them has a different run key.
    ScenarioSpec bare = fullSpec();
    bare.deviceOverrides.clear();
    const auto bareSpecs = bare.expand();
    EXPECT_TRUE(specs[0].variantTag.find("fault=") !=
                std::string::npos);
    EXPECT_TRUE(bareSpecs[0].variantTag.empty());
    EXPECT_NE(sim::ParallelRunner::runKey(specs[0]),
              sim::ParallelRunner::runKey(bareSpecs[0]));
}

TEST(ScenarioSpec, RejectsSilentlyIgnoredKnobs)
{
    // Both of these would otherwise be accepted and then have no
    // effect: compression never stretches (trace-cache contract), and
    // run seeds are derived from the run key.
    ScenarioSpec s;
    s.policies = {"Sibyl"};
    s.workloads = {"prxy_1"};
    s.timeCompress = 0.5;
    EXPECT_THROW(s.expand(), std::invalid_argument);
    s.timeCompress = 1.0;
    s.sibylParams = {{"seed", "7"}};
    EXPECT_THROW(s.expand(), std::invalid_argument);
    s.sibylParams.clear();
    EXPECT_NO_THROW(s.expand());
}

TEST(ScenarioSpec, ExpandValidatesPoliciesAndOverrideDevices)
{
    ScenarioSpec s;
    s.policies = {"NoSuchPolicy"};
    s.workloads = {"prxy_1"};
    EXPECT_THROW(s.expand(), std::invalid_argument);

    ScenarioSpec o;
    o.policies = {"CDE"};
    o.workloads = {"prxy_1"};
    o.hssConfigs = {"H&M"};
    DeviceOverride ov;
    ov.device = 2; // H&M has two devices
    o.deviceOverrides = {ov};
    EXPECT_THROW(o.expand(), std::invalid_argument);
}

TEST(ScenarioSpec, ExpandRejectsOutOfRangeFastCapacityFrac)
{
    // The fraction sizes the fast device of every run; one that cannot
    // size it fails the scenario at lowering, naming the field, and an
    // unknown hssConfig fails there too.
    ScenarioSpec s;
    s.policies = {"CDE"};
    s.workloads = {"prxy_1"};
    for (double frac : {-0.5, std::nan(""), HUGE_VAL, 1e300}) {
        s.fastCapacityFrac = frac;
        try {
            s.expand();
            ADD_FAILURE() << "fastCapacityFrac " << frac << " accepted";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find("fastCapacityFrac"),
                      std::string::npos)
                << e.what();
        }
    }
    s.fastCapacityFrac = 0.0; // an empty fraction still builds
    EXPECT_NO_THROW(s.expand());
    s.hssConfigs = {"H&X"};
    EXPECT_THROW(s.expand(), std::invalid_argument);
}

// ------------------- migrated-bench equivalence gate ------------------

/** The fig8 buffer sweep in miniature, as a scenario. */
ScenarioSpec
miniFig8()
{
    ScenarioSpec s;
    s.name = "fig8-mini";
    s.policies = {"Sibyl{bufferCapacity=10,trainEvery=250}",
                  "Sibyl{bufferCapacity=1000,trainEvery=250}"};
    s.workloads = {"hm_1", "prxy_1"};
    s.hssConfigs = {"H&M"};
    s.traceLen = 600;
    return s;
}

TEST(ScenarioRun, Fig8SweepBitExactAtOneVsManyThreads)
{
    ScenarioSpec serial = miniFig8();
    serial.numThreads = 1;
    ScenarioSpec parallel = miniFig8();
    parallel.numThreads = 4;

    const auto a = runScenario(serial);
    const auto b = runScenario(parallel);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); i++) {
        SCOPED_TRACE(a[i].spec.policy + " / " + a[i].spec.workload);
        EXPECT_EQ(a[i].runKey, b[i].runKey);
        EXPECT_EQ(a[i].result.metrics.avgLatencyUs,
                  b[i].result.metrics.avgLatencyUs);
        EXPECT_EQ(a[i].result.normalizedLatency,
                  b[i].result.normalizedLatency);
        EXPECT_EQ(a[i].result.metrics.placements,
                  b[i].result.metrics.placements);
        // Distinct sweep points must have produced distinct agents:
        // the descriptor is part of the run key.
        if (i > 0) {
            EXPECT_NE(a[i].runKey, a[0].runKey);
        }
    }
}

TEST(ScenarioRun, ScenarioMatchesHandBuiltRunSpecsBitForBit)
{
    // The lowering contract: a scenario lowers to exactly the RunSpecs
    // hand-written code would build, in (hssConfig, workload, policy,
    // seed) order, so the results are bit-identical, not merely
    // statistically equal.
    const auto viaScenario = runScenario(miniFig8());

    std::vector<sim::RunSpec> specs;
    for (const char *wl : {"hm_1", "prxy_1"}) {
        for (const char *pol :
             {"Sibyl{bufferCapacity=10,trainEvery=250}",
              "Sibyl{bufferCapacity=1000,trainEvery=250}"}) {
            sim::RunSpec s;
            s.policy = pol;
            s.workload = wl;
            s.hssConfig = "H&M";
            s.traceLen = 600;
            specs.push_back(s);
        }
    }
    sim::ParallelRunner runner;
    const auto viaSpecs = runner.runAll(specs);

    // The JSON sink prints run keys and every metric at %.17g.
    ASSERT_EQ(viaScenario.size(), 4u);
    std::ostringstream a, b;
    sim::writeResultsJson(a, viaScenario);
    sim::writeResultsJson(b, viaSpecs);
    EXPECT_EQ(a.str(), b.str());
}

TEST(ScenarioRun, BadFtlOverrideFailsOnlyItsRuns)
{
    // ftlPagesPerBlock = 1 used to abort the whole process from
    // makeGeometry. Only flash devices build an FTL: device 1 is the
    // flash SSD M under H&M and the HDD L under H&L, so the H&M runs
    // must fail in isolation, naming the field, and the H&L runs must
    // serialize exactly as in a scenario without H&M.
    const ScenarioSpec mixed = parseScenarioJson(R"({
        "name": "bad-ftl", "policies": ["CDE", "Archivist"],
        "workloads": ["prxy_1"], "hssConfigs": ["H&M", "H&L"],
        "traceLen": 500,
        "deviceOverrides": [
            {"device": 1, "detailedFtl": true, "ftlPagesPerBlock": 1}]})");
    ScenarioSpec clean = mixed;
    clean.hssConfigs = {"H&L"};

    const auto with = runScenario(mixed);
    const auto without = runScenario(clean);
    ASSERT_EQ(with.size(), 4u);
    ASSERT_EQ(without.size(), 2u);
    std::vector<sim::RunRecord> cleanRuns;
    for (const auto &r : with) {
        SCOPED_TRACE(r.spec.policy + " / " + r.spec.hssConfig);
        if (r.spec.hssConfig == "H&M") {
            ASSERT_TRUE(r.failed());
            EXPECT_NE(r.error.find("pagesPerBlock"), std::string::npos)
                << r.error;
        } else {
            EXPECT_FALSE(r.failed()) << r.error;
            cleanRuns.push_back(r);
        }
    }
    std::ostringstream got, want;
    sim::writeResultsJson(got, cleanRuns);
    sim::writeResultsJson(want, without);
    EXPECT_EQ(got.str(), want.str());
}

// ------------------ the paper's figures as scenario files ------------------

TEST(PaperScenarios, EveryFileLoadsAndExpands)
{
    // Each figure file parses with a report, is named after its file
    // (the name becomes the results document's "campaign"),
    // round-trips, and lowers to its full grid. Running them is CI's
    // job; runtime stays out of unit tests.
    namespace fs = std::filesystem;
    for (const char *dir : {"../scenarios/paper", "scenarios/paper"}) {
        if (!fs::is_directory(dir))
            continue;
        std::vector<fs::path> files;
        for (const auto &entry : fs::directory_iterator(dir))
            if (entry.path().extension() == ".json")
                files.push_back(entry.path());
        EXPECT_FALSE(files.empty());
        for (const auto &path : files) {
            SCOPED_TRACE(path.string());
            const ScenarioSpec s = loadScenarioFile(path.string());
            EXPECT_TRUE(s.report.has_value());
            EXPECT_EQ(s.name, path.stem().string());
            EXPECT_TRUE(parseScenarioJson(emitScenarioJson(s)) == s);
            EXPECT_EQ(s.expand().size(),
                      s.hssConfigs.size() * s.workloads.size() *
                          s.policies.size() * s.seeds.size());
        }
        return;
    }
    GTEST_SKIP() << "scenarios/paper/ not reachable from test cwd";
}

} // namespace
} // namespace sibyl::scenario
