#include "scenario/scenario_spec.hh"

#include <cstdio>
#include <stdexcept>
#include <utility>

#include "scenario/json.hh"
#include "scenario/policy_factory.hh"

namespace sibyl::scenario
{

void
DeviceOverride::applyFaults(device::FaultConfig &fc) const
{
    for (const auto &w : faultWindows)
        fc.windows.push_back(w);
    for (const auto &w : offlineWindows)
        fc.offlineWindows.push_back(w);
    if (failAtUs >= 0.0)
        fc.failAtUs = failAtUs;
    if (drainPagesPerMs >= 0.0)
        fc.drainPagesPerMs = drainPagesPerMs;
    if (failoverTimeoutUs >= 0.0)
        fc.failoverTimeoutUs = failoverTimeoutUs;
    if (failOnUnrecoverable >= 0)
        fc.failOnUnrecoverable = failOnUnrecoverable != 0;
}

device::FaultConfig
DeviceOverride::faultConfig() const
{
    device::FaultConfig fc;
    applyFaults(fc);
    return fc;
}

namespace
{

constexpr std::pair<const char *, const char *> kReportMetrics[] = {
    {"normalizedLatency", "avg request latency (normalized to Fast-Only)"},
    {"normalizedIops",
     "request throughput IOPS (normalized to Fast-Only)"},
    {"evictionFraction",
     "eviction fraction (evicting requests / all requests)"},
    {"fastPlacementPreference",
     "preference for fast storage (#fast / #all placements)"},
};

} // namespace

const char *
reportMetricCaption(const std::string &metric)
{
    for (const auto &[name, caption] : kReportMetrics)
        if (metric == name)
            return caption;
    return nullptr;
}

std::vector<sim::RunSpec>
ScenarioSpec::expand() const
{
    const auto &factory = PolicyFactory::instance();
    for (const auto &p : policies) {
        if (!factory.resolvable(p))
            // Re-run through make() for the full diagnostic (it lists
            // the registered names).
            factory.make(p, 2);
    }
    for (const auto &t : fleetTenants) {
        if (!factory.resolvable(t.policy))
            factory.make(t.policy, 2);
        if (!(t.timeCompress >= 1.0))
            throw std::invalid_argument(
                "scenario \"" + name + "\": fleet tenant \"" +
                t.workload + "\": timeCompress must be >= 1");
    }
    // Every named config must build at the scenario's capacity
    // fraction: an unknown shorthand or an out-of-range fraction fails
    // here, at lowering, instead of in every run.
    for (const auto &cfg : hssConfigs)
        sim::numHssDevices(cfg, fastCapacityFrac);
    for (const auto &ov : deviceOverrides) {
        for (const auto &cfg : hssConfigs) {
            const std::uint32_t n =
                sim::numHssDevices(cfg, fastCapacityFrac);
            if (ov.device >= n)
                throw std::invalid_argument(
                    "scenario \"" + name + "\": deviceOverrides names "
                    "device " + std::to_string(ov.device) +
                    " but config \"" + cfg + "\" has " +
                    std::to_string(n) + " devices");
        }
        // Whole-config validation (cross-field rules: overlapping
        // offline windows, failAtUs inside an outage, drain rates) of
        // exactly the FaultConfig the tweak below will install. Device
        // presets carry no faults, so the override alone IS the final
        // config — the same validateFaultConfig the FaultModel ctor
        // runs, surfaced here as a scenario diagnostic naming the
        // device instead of an abort mid-run.
        const std::string err =
            device::validateFaultConfig(ov.faultConfig());
        if (!err.empty())
            throw std::invalid_argument(
                "scenario \"" + name + "\": deviceOverrides device " +
                std::to_string(ov.device) + ": " + err);
    }

    // Values <= 1 would be silently ignored by the trace cache (its
    // documented contract: compression never stretches); reject them
    // here where the user can see why.
    if (!(timeCompress >= 1.0))
        throw std::invalid_argument(
            "scenario \"" + name + "\": timeCompress must be >= 1 "
            "(gaps are divided by it; it cannot stretch a trace)");
    // The parallel runner derives every run's agent seed from the run
    // key, so a base-config seed would be silently discarded — the
    // two working spellings are the experiment-level seeds array and
    // the per-policy descriptor Sibyl{seed=N} (applied after
    // derivation).
    if (sibylParams.count("seed"))
        throw std::invalid_argument(
            "scenario \"" + name + "\": sibylParams.seed has no "
            "effect (run seeds are derived from the run key); use "
            "the \"seeds\" array, or pin one policy's agent seed "
            "with a Sibyl{seed=N} descriptor");

    // Every run shares one template; the loops below fill in its grid
    // coordinates.
    sim::RunSpec proto;
    proto.mixedWorkload = mixedWorkloads;
    proto.fastCapacityFrac = fastCapacityFrac;
    proto.traceLen = traceLen;
    proto.traceSeed = traceSeed;
    proto.timeCompress = timeCompress;
    proto.sim.queueDepth = queueDepth;
    proto.sim.recordPerRequest = recordPerRequest;
    if (!sibylParams.empty()) {
        PolicyDesc base;
        base.name = "sibylParams";
        base.raw = "scenario \"" + name + "\" sibylParams";
        for (const auto &[k, v] : sibylParams)
            base.params.emplace_back(k, v);
        applySibylParams(proto.sibylCfg, base);
    }

    // A fleet scenario is one run per (hssConfig, seed) cell hosting
    // every tenant; the "Fleet" policy and "fleet:..." workload are
    // display identities.
    std::vector<std::string> cellPolicies = policies;
    std::vector<std::string> cellWorkloads = workloads;
    if (!fleetTenants.empty()) {
        auto fleet = std::make_shared<sim::FleetSpec>();
        fleet->tenants = fleetTenants;
        proto.fleet = fleet;
        std::string fleetWorkload = "fleet:";
        for (std::size_t i = 0; i < fleetTenants.size(); i++) {
            if (i)
                fleetWorkload += '+';
            fleetWorkload += fleetTenants[i].workload;
        }
        proto.mixedWorkload = false; // tenants carry their own
        cellPolicies = {"Fleet"};
        cellWorkloads = {fleetWorkload};
    }

    std::vector<sim::RunSpec> specs;
    specs.reserve(hssConfigs.size() * cellWorkloads.size() *
                  cellPolicies.size() * seeds.size());
    for (const auto &cfgName : hssConfigs) {
        for (const auto &wl : cellWorkloads) {
            for (const auto &pol : cellPolicies) {
                for (std::uint64_t sd : seeds) {
                    sim::RunSpec s = proto;
                    s.policy = pol;
                    s.workload = wl;
                    s.hssConfig = cfgName;
                    s.seed = sd;
                    specs.push_back(std::move(s));
                }
            }
        }
    }
    if (!deviceOverrides.empty()) {
        // The overrides influence simulation dynamics, so their
        // canonical form rides in RunSpec::variantTag and becomes
        // part of every run's key (a faulted run and its healthy
        // control must never share an identity).
        std::string tag;
        for (const auto &ov : deviceOverrides) {
            tag += "dev" + std::to_string(ov.device);
            if (ov.channels != 0)
                tag += ",ch=" + std::to_string(ov.channels);
            if (ov.detailedFtl >= 0)
                tag += ",ftl=" + std::to_string(ov.detailedFtl);
            if (ov.ftlPagesPerBlock != 0)
                tag += ",ppb=" + std::to_string(ov.ftlPagesPerBlock);
            // Endurance fields, emitted only when set — scenarios
            // without them keep their historical tag bytes (and run
            // keys).
            if (ov.ftlRatedPeCycles != 0)
                tag += ",pe=" + std::to_string(ov.ftlRatedPeCycles);
            if (ov.ftlGrownBadProb >= 0.0)
                tag += ",gbp=" + jsonNumber(ov.ftlGrownBadProb);
            if (ov.ftlWearLevelSpread != 0)
                tag += ",wls=" + std::to_string(ov.ftlWearLevelSpread);
            for (const auto &w : ov.faultWindows)
                tag += ",fault=" + jsonNumber(w.startUs) + ":" +
                       jsonNumber(w.endUs) + ":" +
                       jsonNumber(w.latencyMultiplier);
            // Hard-fault fields, emitted only when set — scenarios
            // without them keep their historical tag bytes (and run
            // keys).
            for (const auto &w : ov.offlineWindows)
                tag += ",off=" + jsonNumber(w.startUs) + ":" +
                       jsonNumber(w.endUs);
            if (ov.failAtUs >= 0.0)
                tag += ",failAt=" + jsonNumber(ov.failAtUs);
            if (ov.drainPagesPerMs >= 0.0)
                tag += ",drain=" + jsonNumber(ov.drainPagesPerMs);
            if (ov.failoverTimeoutUs >= 0.0)
                tag += ",fot=" + jsonNumber(ov.failoverTimeoutUs);
            if (ov.failOnUnrecoverable >= 0)
                tag += ",founr=" +
                       std::to_string(ov.failOnUnrecoverable != 0);
            tag += ';';
        }
        const std::vector<DeviceOverride> overrides = deviceOverrides;
        auto tweak = [overrides](std::vector<device::DeviceSpec> &specs_) {
            for (const auto &ov : overrides) {
                auto &d = specs_.at(ov.device);
                if (ov.channels != 0)
                    d.channels = ov.channels;
                if (ov.detailedFtl >= 0)
                    d.detailedFtl = ov.detailedFtl != 0;
                if (ov.ftlPagesPerBlock != 0)
                    d.ftlPagesPerBlock = ov.ftlPagesPerBlock;
                if (ov.ftlRatedPeCycles != 0)
                    d.ftlRatedPeCycles = ov.ftlRatedPeCycles;
                if (ov.ftlGrownBadProb >= 0.0)
                    d.ftlGrownBadProb = ov.ftlGrownBadProb;
                if (ov.ftlWearLevelSpread != 0)
                    d.ftlWearLevelSpread = ov.ftlWearLevelSpread;
                ov.applyFaults(d.faults);
            }
        };
        for (auto &s : specs) {
            s.specTweak = tweak;
            s.variantTag = tag;
        }
    }
    return specs;
}

namespace
{

[[noreturn]] void
specError(const std::string &what)
{
    throw std::invalid_argument("scenario: " + what);
}

std::vector<std::string>
stringList(const JsonValue &v, const char *field)
{
    std::vector<std::string> out;
    for (const auto &e : v.asArray()) {
        if (!e.isString())
            specError(std::string(field) + " wants an array of strings");
        out.push_back(e.asString());
    }
    return out;
}

/** sibylParams values may be written as JSON strings, numbers, or
 *  bools; normalize to the descriptor-parameter string form. */
std::string
paramString(const JsonValue &v, const std::string &key)
{
    if (v.isString())
        return v.asString();
    if (v.isBool())
        return v.asBool() ? "1" : "0";
    if (v.isNumber()) {
        if (v.isIntegral())
            return v.asDouble() < 0.0 ? std::to_string(v.asInt())
                                      : std::to_string(v.asUint());
        return jsonNumber(v.asDouble());
    }
    specError("sibylParams." + key + " wants a string, number, or bool");
}

sim::FleetTenant
parseFleetTenant(const JsonValue &v, std::size_t index)
{
    sim::FleetTenant t;
    bool sawWorkload = false;
    for (const auto &[key, val] : v.asObject()) {
        if (key == "policy") {
            t.policy = val.asString();
        } else if (key == "workload") {
            t.workload = val.asString();
            sawWorkload = true;
        } else if (key == "mixedWorkload") {
            t.mixedWorkload = val.asBool();
        } else if (key == "traceLen") {
            t.traceLen = val.asUint();
        } else if (key == "traceSeed") {
            t.traceSeed = val.asUint();
        } else if (key == "timeCompress") {
            t.timeCompress = val.asDouble();
        } else {
            specError("unknown fleet key \"" + key +
                      "\" (valid: policy workload mixedWorkload "
                      "traceLen traceSeed timeCompress)");
        }
    }
    if (!sawWorkload)
        specError("fleet[" + std::to_string(index) +
                  "] needs a \"workload\"");
    return t;
}

DeviceOverride
parseOverride(const JsonValue &v)
{
    DeviceOverride ov;
    for (const auto &[key, val] : v.asObject()) {
        if (key == "device") {
            ov.device = static_cast<std::uint32_t>(val.asUint());
        } else if (key == "channels") {
            ov.channels = static_cast<std::uint32_t>(val.asUint());
        } else if (key == "detailedFtl") {
            ov.detailedFtl = val.asBool() ? 1 : 0;
        } else if (key == "ftlPagesPerBlock") {
            ov.ftlPagesPerBlock = static_cast<std::uint32_t>(val.asUint());
        } else if (key == "ftlRatedPeCycles") {
            ov.ftlRatedPeCycles = val.asUint();
        } else if (key == "ftlGrownBadProb") {
            ov.ftlGrownBadProb = val.asDouble();
        } else if (key == "ftlWearLevelSpread") {
            ov.ftlWearLevelSpread = val.asUint();
        } else if (key == "faultWindows") {
            for (const auto &w : val.asArray()) {
                device::DegradedWindow win;
                for (const auto &[wk, wv] : w.asObject()) {
                    if (wk == "startUs")
                        win.startUs = wv.asDouble();
                    else if (wk == "endUs")
                        win.endUs = wv.asDouble();
                    else if (wk == "latencyMultiplier")
                        win.latencyMultiplier = wv.asDouble();
                    else
                        specError("unknown faultWindows key \"" + wk +
                                  "\" (valid: startUs endUs "
                                  "latencyMultiplier)");
                }
                // Reject malformed windows at lowering time — a NaN
                // probability or inverted window would otherwise
                // simulate silently as "no fault".
                const std::string err = device::validateWindow(win);
                if (!err.empty())
                    specError("faultWindows[" +
                              std::to_string(ov.faultWindows.size()) +
                              "]: " + err);
                ov.faultWindows.push_back(win);
            }
        } else if (key == "offlineWindows") {
            for (const auto &w : val.asArray()) {
                device::OfflineWindow win;
                for (const auto &[wk, wv] : w.asObject()) {
                    if (wk == "startUs")
                        win.startUs = wv.asDouble();
                    else if (wk == "endUs")
                        win.endUs = wv.asDouble();
                    else
                        specError("unknown offlineWindows key \"" + wk +
                                  "\" (valid: startUs endUs)");
                }
                const std::string err = device::validateWindow(win);
                if (!err.empty())
                    specError("offlineWindows[" +
                              std::to_string(ov.offlineWindows.size()) +
                              "]: " + err);
                ov.offlineWindows.push_back(win);
            }
        } else if (key == "failAtUs") {
            ov.failAtUs = val.asDouble();
        } else if (key == "drainPagesPerMs") {
            ov.drainPagesPerMs = val.asDouble();
        } else if (key == "failoverTimeoutUs") {
            ov.failoverTimeoutUs = val.asDouble();
        } else if (key == "failOnUnrecoverable") {
            ov.failOnUnrecoverable = val.asBool() ? 1 : 0;
        } else {
            specError("unknown deviceOverrides key \"" + key +
                      "\" (valid: device channels detailedFtl "
                      "ftlPagesPerBlock ftlRatedPeCycles "
                      "ftlGrownBadProb ftlWearLevelSpread "
                      "faultWindows offlineWindows "
                      "failAtUs drainPagesPerMs failoverTimeoutUs "
                      "failOnUnrecoverable)");
        }
    }
    return ov;
}

ReportSpec
parseReport(const JsonValue &v)
{
    if (!v.isObject())
        specError("report wants an object");
    ReportSpec r;
    for (const auto &[key, val] : v.asObject()) {
        std::string *field = key == "title"       ? &r.title
                             : key == "metric"    ? &r.metric
                             : key == "reference" ? &r.reference
                                                  : nullptr;
        if (!field)
            specError("unknown report key \"" + key +
                      "\" (valid: title metric reference)");
        if (!val.isString())
            specError("report." + key + " wants a string");
        *field = val.asString();
    }
    if (r.title.empty())
        specError("report needs a \"title\"");
    if (!reportMetricCaption(r.metric)) {
        std::string valid;
        for (const auto &m : kReportMetrics)
            valid += std::string(" ") + m.first;
        specError("report.metric \"" + r.metric +
                  "\" is not a report metric (valid:" + valid + ")");
    }
    return r;
}

} // namespace

ScenarioSpec
parseScenarioJson(const std::string &text)
{
    const JsonValue doc = jsonParse(text);
    if (!doc.isObject())
        specError("document must be a JSON object");

    ScenarioSpec s;
    bool sawPolicies = false, sawWorkloads = false;
    for (const auto &[key, v] : doc.asObject()) {
        if (key == "name") {
            s.name = v.asString();
        } else if (key == "policies") {
            s.policies = stringList(v, "policies");
            sawPolicies = true;
        } else if (key == "workloads") {
            s.workloads = stringList(v, "workloads");
            sawWorkloads = true;
        } else if (key == "fleet") {
            for (const auto &e : v.asArray())
                s.fleetTenants.push_back(
                    parseFleetTenant(e, s.fleetTenants.size()));
            if (s.fleetTenants.empty())
                specError("\"fleet\" must name at least one tenant");
        } else if (key == "hssConfigs") {
            s.hssConfigs = stringList(v, "hssConfigs");
        } else if (key == "seeds") {
            s.seeds.clear();
            for (const auto &e : v.asArray())
                s.seeds.push_back(e.asUint());
        } else if (key == "mixedWorkloads") {
            s.mixedWorkloads = v.asBool();
        } else if (key == "fastCapacityFrac") {
            s.fastCapacityFrac = v.asDouble();
        } else if (key == "traceLen") {
            s.traceLen = v.asUint();
        } else if (key == "traceSeed") {
            s.traceSeed = v.asUint();
        } else if (key == "timeCompress") {
            s.timeCompress = v.asDouble();
        } else if (key == "queueDepth") {
            s.queueDepth = static_cast<std::uint32_t>(v.asUint());
        } else if (key == "recordPerRequest") {
            s.recordPerRequest = v.asBool();
        } else if (key == "sibylParams") {
            for (const auto &[pk, pv] : v.asObject())
                s.sibylParams[pk] = paramString(pv, pk);
        } else if (key == "deviceOverrides") {
            for (const auto &e : v.asArray())
                s.deviceOverrides.push_back(parseOverride(e));
        } else if (key == "numThreads") {
            s.numThreads = static_cast<unsigned>(v.asUint());
        } else if (key == "report") {
            s.report = parseReport(v);
        } else {
            specError("unknown key \"" + key +
                      "\" (valid: name policies workloads fleet "
                      "hssConfigs seeds mixedWorkloads "
                      "fastCapacityFrac traceLen traceSeed timeCompress "
                      "queueDepth recordPerRequest sibylParams "
                      "deviceOverrides numThreads report)");
        }
    }
    if (!s.fleetTenants.empty()) {
        // A fleet scenario IS its tenant list; a policies/workloads
        // cross-product alongside it would be ambiguous about which
        // runs it asks for.
        if (sawPolicies || sawWorkloads)
            specError("\"fleet\" excludes \"policies\"/\"workloads\" "
                      "(tenants carry their own)");
        // A report tabulates workloads x policies, which a fleet cell
        // does not have.
        if (s.report)
            specError("\"fleet\" excludes \"report\"");
    } else {
        if (!sawPolicies || s.policies.empty())
            specError("\"policies\" must name at least one policy");
        if (!sawWorkloads || s.workloads.empty())
            specError("\"workloads\" must name at least one workload");
    }
    if (s.hssConfigs.empty())
        specError("\"hssConfigs\" must not be empty");
    if (s.seeds.empty())
        specError("\"seeds\" must not be empty");
    return s;
}

std::string
emitScenarioJson(const ScenarioSpec &s)
{
    JsonValue doc = JsonValue::object();
    doc.set("name", JsonValue::of(s.name));

    auto stringArray = [](const std::vector<std::string> &v) {
        JsonValue a = JsonValue::array();
        for (const auto &e : v)
            a.push(JsonValue::of(e));
        return a;
    };
    if (s.fleetTenants.empty()) {
        doc.set("policies", stringArray(s.policies));
        doc.set("workloads", stringArray(s.workloads));
    } else {
        JsonValue fleet = JsonValue::array();
        for (const auto &t : s.fleetTenants) {
            JsonValue tv = JsonValue::object();
            tv.set("policy", JsonValue::of(t.policy));
            tv.set("workload", JsonValue::of(t.workload));
            tv.set("mixedWorkload", JsonValue::of(t.mixedWorkload));
            tv.set("traceLen", JsonValue::of(std::uint64_t{t.traceLen}));
            tv.set("traceSeed", JsonValue::of(t.traceSeed));
            tv.set("timeCompress", JsonValue::of(t.timeCompress));
            fleet.push(tv);
        }
        doc.set("fleet", fleet);
    }
    doc.set("hssConfigs", stringArray(s.hssConfigs));
    JsonValue seeds = JsonValue::array();
    for (auto sd : s.seeds)
        seeds.push(JsonValue::of(sd));
    doc.set("seeds", seeds);
    doc.set("mixedWorkloads", JsonValue::of(s.mixedWorkloads));
    doc.set("fastCapacityFrac", JsonValue::of(s.fastCapacityFrac));
    doc.set("traceLen", JsonValue::of(std::uint64_t{s.traceLen}));
    doc.set("traceSeed", JsonValue::of(s.traceSeed));
    doc.set("timeCompress", JsonValue::of(s.timeCompress));
    doc.set("queueDepth", JsonValue::of(std::uint64_t{s.queueDepth}));
    doc.set("recordPerRequest", JsonValue::of(s.recordPerRequest));
    if (!s.sibylParams.empty()) {
        JsonValue params = JsonValue::object();
        for (const auto &[k, v] : s.sibylParams)
            params.set(k, JsonValue::of(v));
        doc.set("sibylParams", params);
    }
    if (!s.deviceOverrides.empty()) {
        JsonValue arr = JsonValue::array();
        for (const auto &ov : s.deviceOverrides) {
            JsonValue o = JsonValue::object();
            o.set("device", JsonValue::of(std::uint64_t{ov.device}));
            if (ov.channels != 0)
                o.set("channels",
                      JsonValue::of(std::uint64_t{ov.channels}));
            if (ov.detailedFtl >= 0)
                o.set("detailedFtl", JsonValue::of(ov.detailedFtl != 0));
            if (ov.ftlPagesPerBlock != 0)
                o.set("ftlPagesPerBlock",
                      JsonValue::of(std::uint64_t{ov.ftlPagesPerBlock}));
            if (ov.ftlRatedPeCycles != 0)
                o.set("ftlRatedPeCycles",
                      JsonValue::of(ov.ftlRatedPeCycles));
            if (ov.ftlGrownBadProb >= 0.0)
                o.set("ftlGrownBadProb",
                      JsonValue::of(ov.ftlGrownBadProb));
            if (ov.ftlWearLevelSpread != 0)
                o.set("ftlWearLevelSpread",
                      JsonValue::of(ov.ftlWearLevelSpread));
            if (!ov.faultWindows.empty()) {
                JsonValue wins = JsonValue::array();
                for (const auto &w : ov.faultWindows) {
                    JsonValue wv = JsonValue::object();
                    wv.set("startUs", JsonValue::of(w.startUs));
                    wv.set("endUs", JsonValue::of(w.endUs));
                    wv.set("latencyMultiplier",
                           JsonValue::of(w.latencyMultiplier));
                    wins.push(wv);
                }
                o.set("faultWindows", wins);
            }
            if (!ov.offlineWindows.empty()) {
                JsonValue wins = JsonValue::array();
                for (const auto &w : ov.offlineWindows) {
                    JsonValue wv = JsonValue::object();
                    wv.set("startUs", JsonValue::of(w.startUs));
                    wv.set("endUs", JsonValue::of(w.endUs));
                    wins.push(wv);
                }
                o.set("offlineWindows", wins);
            }
            if (ov.failAtUs >= 0.0)
                o.set("failAtUs", JsonValue::of(ov.failAtUs));
            if (ov.drainPagesPerMs >= 0.0)
                o.set("drainPagesPerMs",
                      JsonValue::of(ov.drainPagesPerMs));
            if (ov.failoverTimeoutUs >= 0.0)
                o.set("failoverTimeoutUs",
                      JsonValue::of(ov.failoverTimeoutUs));
            if (ov.failOnUnrecoverable >= 0)
                o.set("failOnUnrecoverable",
                      JsonValue::of(ov.failOnUnrecoverable != 0));
            arr.push(o);
        }
        doc.set("deviceOverrides", arr);
    }
    doc.set("numThreads", JsonValue::of(std::uint64_t{s.numThreads}));
    if (s.report) {
        JsonValue report = JsonValue::object();
        report.set("title", JsonValue::of(s.report->title));
        report.set("metric", JsonValue::of(s.report->metric));
        if (!s.report->reference.empty())
            report.set("reference", JsonValue::of(s.report->reference));
        doc.set("report", report);
    }
    return doc.dump();
}

ScenarioSpec
loadScenarioFile(const std::string &path)
{
    try {
        return parseScenarioJson(readTextFile(path));
    } catch (const std::invalid_argument &e) {
        throw std::invalid_argument(path + ": " + e.what());
    }
}

std::vector<sim::RunRecord>
runScenario(const ScenarioSpec &spec, sim::ParallelRunner &runner)
{
    return runner.runAll(spec.expand());
}

std::vector<sim::RunRecord>
runScenario(const ScenarioSpec &spec)
{
    sim::ParallelConfig cfg;
    cfg.numThreads = spec.numThreads;
    sim::ParallelRunner runner(cfg);
    return runScenario(spec, runner);
}

} // namespace sibyl::scenario
