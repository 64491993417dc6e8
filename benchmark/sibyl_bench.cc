/**
 * @file
 * The repository benchmark: one workload per invocation.
 *
 *   sibyl_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *               [--smoke] [--json PATH] [--spans DIR]
 *
 * A workload is a scenario file in the benchmark's workloads directory.
 * The runs of a scenario with "numThreads": 1 are replayed one after
 * the other, request by request, in this process (a closed loop with one
 * client: the next request is stepped when the previous step returns).
 * Any other scenario (a fleet, or a matrix of runs) goes through
 * sim::ParallelRunner on min(nproc, 4) threads.
 *
 * --trace 0 measures the end-to-end metrics: fresh set-ups and whole
 * runs ("episodes") repeat until about --seconds of simulation have been
 * timed, and the medians are reported, throughput at the reference host
 * speed of host_speed.hh. --trace 1 measures the per-layer
 * metrics with an outside-in replica of the request loop (units.hh).
 * Both check their outputs (see README.md) and print, as the last line
 * of standard output, {"correct", "attempted", "failed", "metrics"}.
 * Every timing is host wall-clock time of the simulator, never a
 * simulated device latency.
 */

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "scenario/json.hh"
#include "host_speed.hh"
#include "scenario/scenario_spec.hh"
#include "sim/fleet.hh"
#include "sim/parallel_runner.hh"
#include "spans.hh"
#include "units.hh"

using namespace sibyl;
using namespace sibyl::bench;

namespace
{

/** Set-ups per invocation, at least: setup_s is their median. */
constexpr int kMinSetups = 5;

/** Episodes per invocation, at least, so that every invocation checks
 *  that a repeated run reproduces the first one. */
constexpr int kMinEpisodes = 2;

/** Whether to stop after an episode of @p lastS seconds that brought the
 *  timed total to @p timedS: the total is then as close to @p targetS as
 *  whole episodes allow. */
bool
timeIsUp(double timedS, double lastS, double targetS, int episodes)
{
    return timedS + 0.5 * lastS >= targetS && episodes >= kMinEpisodes;
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 15.0;
    bool traced = false;
    bool smoke = false;
    std::string jsonPath;
    std::string spansDir;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "sibyl_bench: " << why
              << "\nusage: sibyl_bench --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] [--smoke] [--json PATH] "
                 "[--spans DIR]\n";
    std::exit(2);
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; i++) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(a + " needs a value");
            return argv[++i];
        };
        try {
            if (a == "--workload")
                o.workload = value();
            else if (a == "--seed")
                o.seed = std::stoull(value());
            else if (a == "--seconds")
                o.seconds = std::stod(value());
            else if (a == "--trace") {
                const std::string v = value();
                if (v != "0" && v != "1")
                    usage("--trace takes 0 or 1");
                o.traced = v == "1";
            } else if (a == "--smoke")
                o.smoke = true;
            else if (a == "--json")
                o.jsonPath = value();
            else if (a == "--spans")
                o.spansDir = value();
            else
                usage("unknown argument " + a);
        } catch (const std::logic_error &) {
            usage("bad value for " + a);
        }
    }
    if (o.workload.empty())
        usage("--workload is required");
    if (!(o.seconds >= 0.0) || o.seconds > 3600.0)
        usage("--seconds must be in [0, 3600]");
    return o;
}

/** Trace-generator seed for --seed: 0 would select each workload's
 *  built-in default, so it is mapped to a fixed nonzero seed. */
std::uint64_t
traceSeed(std::uint64_t seed)
{
    return seed ? seed : 0x5EEDull;
}

unsigned
benchThreads()
{
    return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                      ru.ru_stime.tv_usec);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** The process's resident-set high-water mark so far, in MiB. */
double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/**
 * Episode time with transient host slowdowns filtered out. The episodes
 * of one invocation do identical work, so each block of requests is
 * timed as its median over the episodes, and the episode as the sum of
 * those medians. @p blocks holds one row of block times per episode;
 * row e is scaled by @p scale[e].
 */
double
robustEpisodeSeconds(const std::vector<std::vector<double>> &blocks,
                     const std::vector<double> &scale)
{
    double total = 0.0;
    std::vector<double> column;
    for (std::size_t b = 0; b < blocks.at(0).size(); b++) {
        column.clear();
        for (std::size_t e = 0; e < blocks.size(); e++)
            column.push_back(blocks[e].at(b) * scale.at(e));
        total += median(column);
    }
    return total;
}

std::string
jsonNum(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[64];
    const auto r = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, r.ptr);
}

struct Metric
{
    std::string name;
    std::string unit;
    double value;
};

/** Requests a run of @p spec steps: its trace length, or the sum of its
 *  tenants' trace lengths for a fleet. */
std::uint64_t
expectedRequests(const sim::RunSpec &spec)
{
    if (!spec.fleet)
        return spec.traceLen;
    std::uint64_t n = 0;
    for (const sim::FleetTenant &t : spec.fleet->tenants)
        n += t.traceLen ? t.traceLen : spec.traceLen;
    return n;
}

/** Synthesize every trace @p runs will ask @p traces for. */
void
warmTraces(const std::vector<sim::RunSpec> &runs, trace::TraceCache &traces)
{
    for (const sim::RunSpec &s : runs) {
        if (!s.fleet) {
            traces.get(s.traceKey());
            continue;
        }
        for (std::size_t i = 0; i < s.fleet->tenants.size(); i++)
            traces.get(tenantSpec(s, i).traceKey());
    }
}

/** All state of one invocation. */
class Bench
{
  public:
    explicit Bench(Options o)
        : opt_(std::move(o)), originNs_(nowNs()),
          tracer_(!opt_.spansDir.empty())
    {
    }

    void run();
    int report() const;

  private:
    /** Load the workload's scenario and lower it to runs; store the
     *  scenario's numThreads in @p scenarioThreads when given. */
    std::vector<sim::RunSpec> load(unsigned *scenarioThreads = nullptr);
    void check(bool ok, const std::string &what, std::uint64_t requests);
    void sample(const std::string &name, double v)
    {
        samples_[name].push_back(v);
    }
    /** Factor that brings a time measured next to a probe of @p probeS
     *  seconds to the probe's reference speed. */
    double speedScale(double probeS)
    {
        const double scale = HostSpeedProbe::kReferenceSeconds / probeS;
        sample("host_speed", scale);
        return scale;
    }
    double med(const std::string &name) const
    {
        auto it = samples_.find(name);
        return it == samples_.end() ? 0.0 : median(it->second);
    }
    double maxOf(const std::string &name) const
    {
        auto it = samples_.find(name);
        return it == samples_.end() || it->second.empty()
                   ? 0.0
                   : *std::max_element(it->second.begin(), it->second.end());
    }

    /** One set-up of run @p index of an in-process workload: load,
     *  lower, build. */
    Unit setUpInProcess(std::size_t index, BuildTimes &bt);
    /** One set-up of a runner workload: load and lower into @p runs,
     *  synthesize their traces. */
    std::unique_ptr<sim::ParallelRunner>
    setUpRunner(std::vector<sim::RunSpec> &runs, unsigned threads);

    void runInProcess(std::size_t runCount);
    void runRunner();
    void traceRunner(const std::vector<sim::RunSpec> &runs,
                     const std::vector<sim::RunRecord> &records,
                     unsigned threads);
    void untracedUnit(Unit &u, const BuildTimes &bt,
                      const sim::RunMetrics *expected, Pass &out);
    void tracedUnit(Unit &u, const Pass &expected);

    std::vector<Metric> endToEnd() const;
    std::vector<Metric> perLayer() const;
    void writeProvenance(const std::string &result) const;

    Options opt_;
    std::uint64_t originNs_; ///< raw span times are relative to this
    bool runnerMode_ = false;
    bool correct_ = true;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    int setups_ = 0;
    int episodes_ = 0;
    double throughputRps_ = 0.0; ///< at the probe's reference speed
    double rawThroughputRps_ = 0.0;
    double peakRssMb_ = 0.0; ///< high-water mark after the first episode
    std::uint64_t requestsPerEpisode_ = 0;
    double simLatencyUs_ = 0.0;
    std::map<std::string, std::vector<double>> samples_;

    // Traced run: spans, layer counts per traced round, and the
    // untraced/traced loop totals the overhead is computed from.
    Tracer tracer_;
    LayerCounts counts_;
    int tracedRounds_ = 0;
    std::uint64_t requestId_ = 0;
    double untracedLoopS_ = 0.0, tracedLoopS_ = 0.0;
    std::uint64_t untracedReqs_ = 0, tracedReqs_ = 0;
    double serialRps_ = 0.0, speedup_ = 1.0, cpuUtil_ = 0.0;
};

void
Bench::check(bool ok, const std::string &what, std::uint64_t requests)
{
    if (ok)
        return;
    correct_ = false;
    failed_ += requests;
    std::cerr << "sibyl_bench: CHECK FAILED: " << what << "\n";
}

std::vector<sim::RunSpec>
Bench::load(unsigned *scenarioThreads)
{
    const std::uint64_t t = nowNs();
    scenario::ScenarioSpec spec = scenario::loadScenarioFile(
        std::string(SIBYL_BENCH_WORKLOAD_DIR) + "/" + opt_.workload + ".json");
    auto scaled = [this](std::size_t len) {
        return opt_.smoke && len ? std::max<std::size_t>(1, len / 100)
                                 : len;
    };
    spec.traceSeed = traceSeed(opt_.seed);
    spec.traceLen = scaled(spec.traceLen);
    // Fleet tenants do not inherit the scenario's trace seed.
    for (sim::FleetTenant &tenant : spec.fleetTenants) {
        tenant.traceSeed = traceSeed(opt_.seed);
        tenant.traceLen = scaled(tenant.traceLen);
    }
    std::vector<sim::RunSpec> runs = spec.expand();
    sample("scenario_load_s", secondsSince(t));
    if (scenarioThreads)
        *scenarioThreads = spec.numThreads;
    return runs;
}

Unit
Bench::setUpInProcess(std::size_t index, BuildTimes &bt)
{
    const std::uint64_t t = nowNs();
    const std::vector<sim::RunSpec> runs = load();
    trace::TraceCache traces;
    Unit u = buildUnit(runs.at(index), traces, bt);
    sample("setup_s", secondsSince(t));
    check(u.trace->size() == expectedRequests(runs[index]),
          "trace has " + std::to_string(u.trace->size()) + " of " +
              std::to_string(expectedRequests(runs[index])) + " requests",
          u.trace->size());
    sample("trace_generate_s", bt.traceS);
    sample("hss_build_s", bt.hssS);
    sample("policy_build_s", bt.policyS);
    setups_++;
    return u;
}

std::unique_ptr<sim::ParallelRunner>
Bench::setUpRunner(std::vector<sim::RunSpec> &runs, unsigned threads)
{
    const std::uint64_t t = nowNs();
    runs = load();
    sim::ParallelConfig pc;
    pc.numThreads = threads;
    auto runner = std::make_unique<sim::ParallelRunner>(pc);
    // Synthesize the traces here, so the timed phase starts at the
    // first run.
    const std::uint64_t tg = nowNs();
    warmTraces(runs, runner->traceCache());
    sample("trace_generate_s", secondsSince(tg));
    sample("setup_s", secondsSince(t));
    setups_++;
    return runner;
}

void
Bench::untracedUnit(Unit &u, const BuildTimes &bt,
                    const sim::RunMetrics *expected, Pass &out)
{
    const std::uint64_t want = u.trace->size();
    const double cpu0 = cpuSeconds();
    out = runUntraced(u);
    const double cpu = cpuSeconds() - cpu0;
    attempted_ += want;
    const sim::RunMetrics &m = out.metrics;
    check(m.requests == want, "untraced run stepped " +
                                  std::to_string(m.requests) + " of " +
                                  std::to_string(want) + " requests",
          want);
    check(m.p50LatencyUs <= m.p999LatencyUs &&
              m.p999LatencyUs <= m.maxLatencyUs && m.avgLatencyUs > 0.0,
          "simulated latency quantiles out of order", want);
    if (expected) {
        const std::string d = diffRuns(*expected, m);
        check(d.empty(), "untraced run differs from the reference in " + d,
              want);
    }
    sample("run_setup_s", bt.traceS + bt.hssS + bt.policyS);
    sample("run_simulate_s", out.loopS);
    sample("unit_cpu_util", ratio(cpu, out.loopS));
    untracedLoopS_ += out.loopS;
    untracedReqs_ += want;
}

void
Bench::tracedUnit(Unit &u, const Pass &expected)
{
    const std::uint64_t want = u.trace->size();
    const Pass p = runTraced(u, tracer_, requestId_);
    attempted_ += want;
    std::string d = diffRuns(expected.metrics, p.metrics);
    if (d.empty())
        d = diffCounters(expected.counters, p.counters);
    check(d.empty(), "traced replica differs from the untraced run in " + d,
          want);
    counts_.add(u, want);
    tracedLoopS_ += p.loopS;
    tracedReqs_ += want;
}

void
Bench::runInProcess(std::size_t runCount)
{
    // An episode steps every run of the scenario in turn. Untraced:
    // episodes until about --seconds of stepping were timed. Traced:
    // untraced and traced episodes alternate, so the overhead estimate
    // sees the same host conditions on both sides.
    std::vector<Pass> refs; // per run, from the first episode
    std::vector<std::vector<double>> blocks;
    std::vector<double> scale; // per untraced episode, to reference speed
    std::optional<HostSpeedProbe> probe;
    if (!opt_.traced)
        probe.emplace();
    double timed = 0.0;
    for (int ep = 0;; ep++) {
        const bool traced = opt_.traced && ep % 2 == 1;
        const double before = timed;
        std::vector<double> episodeBlocks;
        requestsPerEpisode_ = 0;
        for (std::size_t r = 0; r < runCount; r++) {
            BuildTimes bt;
            Unit u = setUpInProcess(r, bt);
            requestsPerEpisode_ += u.trace->size();
            if (traced) {
                const double tracedBefore = tracedLoopS_;
                tracedUnit(u, refs.at(r));
                timed += tracedLoopS_ - tracedBefore;
                continue;
            }
            const bool first = refs.size() == r;
            Pass p;
            untracedUnit(u, bt, first ? nullptr : &refs[r].metrics, p);
            if (first) {
                refs.push_back(p);
            } else {
                const std::string d = diffCounters(refs[r].counters, p.counters);
                check(d.empty(), "episode counters differ in " + d,
                      u.trace->size());
            }
            episodeBlocks.insert(episodeBlocks.end(), p.blockS.begin(),
                                 p.blockS.end());
            timed += p.loopS;
        }
        if (traced) {
            tracedRounds_++;
        } else {
            blocks.push_back(std::move(episodeBlocks));
            scale.push_back(probe ? speedScale(probe->measure()) : 1.0);
        }
        if (++episodes_ == 1)
            peakRssMb_ = peakRssMb();
        if (timeIsUp(timed, timed - before, opt_.seconds, episodes_))
            break;
    }
    while (setups_ < kMinSetups) {
        BuildTimes bt;
        setUpInProcess(0, bt);
    }
    double latencySum = 0.0;
    for (const Pass &p : refs)
        latencySum += p.metrics.avgLatencyUs *
                      static_cast<double>(p.metrics.requests);
    simLatencyUs_ = ratio(latencySum, static_cast<double>(requestsPerEpisode_));
    const auto requests = static_cast<double>(requestsPerEpisode_);
    throughputRps_ = ratio(requests, robustEpisodeSeconds(blocks, scale));
    rawThroughputRps_ = ratio(
        requests,
        robustEpisodeSeconds(blocks, std::vector<double>(blocks.size(), 1.0)));
    serialRps_ = rawThroughputRps_;
    cpuUtil_ = med("unit_cpu_util");
}

void
Bench::runRunner()
{
    const unsigned threads = benchThreads();
    std::string firstResults;
    std::vector<sim::RunRecord> records;
    std::vector<sim::RunSpec> runs;
    std::vector<double> rps, rawRps;
    std::optional<HostSpeedProbe> probe;
    if (!opt_.traced)
        probe.emplace();
    double timed = 0.0;
    for (;;) {
        auto runner = setUpRunner(runs, threads);
        const std::size_t generated = runner->traceCache().generatedCount();
        std::uint64_t want = 0;
        for (const sim::RunSpec &s : runs)
            want += expectedRequests(s);
        requestsPerEpisode_ = want;

        const double cpu0 = cpuSeconds();
        const std::uint64_t t = nowNs();
        records = runner->runAll(runs);
        const double wall = secondsSince(t);
        const double cpu = cpuSeconds() - cpu0;
        attempted_ += want;

        std::uint64_t done = 0;
        double latencySum = 0.0;
        for (std::size_t i = 0; i < records.size(); i++) {
            const sim::RunRecord &r = records[i];
            const std::uint64_t runWant = expectedRequests(runs[i]);
            check(!r.failed(), "run " + std::to_string(i) + " failed: " +
                                   r.error,
                  runWant);
            check(r.failed() || r.result.metrics.requests == runWant,
                  "run " + std::to_string(i) + " stepped " +
                      std::to_string(r.result.metrics.requests) + " of " +
                      std::to_string(runWant) + " requests",
                  runWant);
            done += r.result.metrics.requests;
            latencySum += r.result.metrics.avgLatencyUs *
                          static_cast<double>(r.result.metrics.requests);
        }
        check(runner->traceCache().generatedCount() == generated,
              "set-up did not synthesize every trace the runs used", 0);
        std::ostringstream json;
        sim::writeResultsJson(json, records);
        if (firstResults.empty()) {
            firstResults = json.str();
            simLatencyUs_ = ratio(latencySum, static_cast<double>(done));
        } else {
            check(json.str() == firstResults,
                  "episode results differ from the first episode's", want);
        }
        rawRps.push_back(ratio(static_cast<double>(done), wall));
        rps.push_back(rawRps.back() /
                      (probe ? speedScale(probe->measure()) : 1.0));
        cpuUtil_ = ratio(cpu, wall * threads);
        timed += wall;
        if (++episodes_ == 1)
            peakRssMb_ = peakRssMb();
        if (opt_.traced || timeIsUp(timed, wall, opt_.seconds, episodes_))
            break;
    }
    throughputRps_ = median(rps);
    rawThroughputRps_ = median(rawRps);
    if (opt_.traced)
        traceRunner(runs, records, threads);
    while (setups_ < kMinSetups)
        setUpRunner(runs, threads);
}

void
Bench::traceRunner(const std::vector<sim::RunSpec> &runs,
                   const std::vector<sim::RunRecord> &records,
                   unsigned threads)
{
    // The same runs on 1 thread must serialize to the same bytes.
    std::uint64_t want = 0;
    for (const sim::RunSpec &s : runs)
        want += expectedRequests(s);
    sim::ParallelConfig pc;
    pc.numThreads = 1;
    sim::ParallelRunner serial(pc);
    warmTraces(runs, serial.traceCache());
    const std::uint64_t t = nowNs();
    const auto serialRecords = serial.runAll(runs);
    const double serialS = secondsSince(t);
    attempted_ += want;
    std::ostringstream a, b;
    sim::writeResultsJson(a, records);
    sim::writeResultsJson(b, serialRecords);
    check(a.str() == b.str(),
          "results differ between " + std::to_string(threads) +
              " threads and 1 thread",
          want);
    serialRps_ = ratio(static_cast<double>(want), serialS);
    speedup_ = ratio(rawThroughputRps_, serialRps_);

    // Replica: every unit (each run, or each fleet tenant), untraced
    // then traced.
    struct Target
    {
        sim::RunSpec spec;
        const sim::RunMetrics *expected;
    };
    std::vector<Target> targets;
    for (std::size_t i = 0; i < runs.size(); i++) {
        const sim::RunSpec &s = runs[i];
        const sim::PolicyResult &res = records[i].result;
        if (!s.fleet) {
            targets.push_back({s, &res.metrics});
            continue;
        }
        for (std::size_t k = 0; k < s.fleet->tenants.size(); k++)
            targets.push_back(
                {tenantSpec(s, k), k < res.tenants.size()
                                       ? &res.tenants[k].metrics
                                       : nullptr});
    }
    for (const Target &tg : targets) {
        Pass ref;
        {
            BuildTimes bt;
            Unit u = buildUnit(tg.spec, serial.traceCache(), bt);
            sample("hss_build_s", bt.hssS);
            sample("policy_build_s", bt.policyS);
            check(tg.expected != nullptr, "missing tenant result",
                  u.trace->size());
            untracedUnit(u, bt, tg.expected, ref);
        }
        BuildTimes bt;
        Unit u = buildUnit(tg.spec, serial.traceCache(), bt);
        tracedUnit(u, ref);
    }
    tracedRounds_ = 1;
}

void
Bench::run()
{
    unsigned scenarioThreads = 0;
    const std::vector<sim::RunSpec> first = load(&scenarioThreads);
    samples_.clear(); // this load is not a set-up sample
    runnerMode_ = scenarioThreads != 1 || first[0].fleet;
    if (runnerMode_)
        runRunner();
    else
        runInProcess(first.size());
}

std::vector<Metric>
Bench::endToEnd() const
{
    return {
        {"throughput_rps", "req/s", throughputRps_},
        {"setup_s", "s", med("setup_s")},
        {"peak_rss_mb", "MiB", peakRssMb_},
    };
}

std::vector<Metric>
Bench::perLayer() const
{
    const LayerCounts &c = counts_;
    const double rounds = std::max(1, tracedRounds_);
    auto perRound = [rounds](std::uint64_t v) {
        return static_cast<double>(v) / rounds;
    };
    auto perReq = [&c](std::uint64_t v) {
        return ratio(static_cast<double>(v), static_cast<double>(c.requests));
    };
    auto meanNs = [this](int k) { return tracer_[k].meanNs(); };
    const SpanStats &step = tracer_[kStep];
    double childNs = 0.0;
    for (int k = 0; k < kSpanKinds; k++)
        if (k != kStep)
            childNs += static_cast<double>(tracer_[k].sumNs);
    const double stepNs = static_cast<double>(step.sumNs);
    const double untracedPerReq =
        ratio(untracedLoopS_, static_cast<double>(untracedReqs_));
    const double tracedPerReq =
        ratio(tracedLoopS_, static_cast<double>(tracedReqs_));

    return {
        {"rl.train_round_us", "us", meanNs(kTrainRound) / 1e3},
        {"rl.train_share", "fraction",
         ratio(static_cast<double>(tracer_[kTrainRound].sumNs), stepNs)},
        {"rl.train_rounds", "count", perRound(c.trainingRounds)},
        {"rl.gradient_steps", "count", perRound(c.gradientSteps)},
        {"rl.weight_syncs", "count", perRound(c.weightSyncs)},
        {"rl.random_action_fraction", "fraction",
         ratio(static_cast<double>(c.randomActions),
               static_cast<double>(c.decisions))},
        {"core.begin_ns", "ns", meanNs(kCoreBegin)},
        {"ml.infer_row_ns", "ns", meanNs(kInferRow)},
        {"core.from_row_ns", "ns", meanNs(kFromRow)},
        {"core.observe_outcome_ns", "ns", meanNs(kCoreObserve)},
        {"policies.select_ns", "ns", meanNs(kPolicySelect)},
        {"hss.advance_ns", "ns", meanNs(kAdvance)},
        {"hss.serve_read_ns", "ns", meanNs(kServeRead)},
        {"hss.serve_write_ns", "ns", meanNs(kServeWrite)},
        {"hss.serve_gc_us", "us", meanNs(kServeGc) / 1e3},
        {"hss.serve_gc_calls", "count", perRound(tracer_[kServeGc].count)},
        {"hss.eviction_fraction", "fraction", perReq(c.evictionEvents)},
        {"hss.evicted_pages_per_req", "pages/req", perReq(c.evictedPages)},
        {"hss.promotions_per_req", "count/req", perReq(c.promotions)},
        {"hss.meta_pages", "pages",
         ratio(static_cast<double>(c.metaPages),
               static_cast<double>(c.units))},
        {"ftl.write_amplification", "ratio",
         c.hostWrites ? static_cast<double>(c.hostWrites + c.gcCopies) /
                            static_cast<double>(c.hostWrites)
                      : 1.0},
        {"ftl.gc_runs", "count", perRound(c.gcRuns)},
        {"ftl.gc_copies_per_run", "pages",
         ratio(static_cast<double>(c.gcCopies),
               static_cast<double>(c.gcRuns))},
        {"ftl.wear_level_runs", "count", perRound(c.wearLevelRuns)},
        {"device.pages_written_per_req", "pages/req", perReq(c.pagesWritten)},
        {"device.gc_stalls", "count", perRound(c.gcStalls)},
        {"trace.generate_s", "s", med("trace_generate_s")},
        {"hss.build_s", "s", med("hss_build_s")},
        {"core.policy_build_ms", "ms", med("policy_build_s") * 1e3},
        {"scenario.load_ms", "ms", med("scenario_load_s") * 1e3},
        {"sim.serial_rps", "req/s", serialRps_},
        {"sim.parallel_speedup", "ratio", speedup_},
        {"sim.cpu_util", "fraction", cpuUtil_},
        {"sim.run_setup_ms_p50", "ms", med("run_setup_s") * 1e3},
        {"sim.run_setup_ms_max", "ms", maxOf("run_setup_s") * 1e3},
        {"sim.run_simulate_ms_p50", "ms", med("run_simulate_s") * 1e3},
        {"sim.run_simulate_ms_max", "ms", maxOf("run_simulate_s") * 1e3},
        {"step.p50_us", "us", step.hist.quantile(0.50) / 1e3},
        {"step.p999_us", "us", step.hist.quantile(0.999) / 1e3},
        {"step.p9999_us", "us", step.hist.quantile(0.9999) / 1e3},
        {"step.max_us", "us", static_cast<double>(step.hist.max()) / 1e3},
        {"step.self_ns", "ns",
         ratio(stepNs - childNs, static_cast<double>(step.count))},
        {"trace.overhead_pct", "%",
         untracedPerReq > 0.0 ? (tracedPerReq / untracedPerReq - 1.0) * 100.0
                              : 0.0},
        {"trace.span_coverage", "fraction", ratio(childNs, tracedLoopS_ * 1e9)},
    };
}

std::string
resultJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
           const std::vector<Metric> &metrics)
{
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); i++)
        os << (i ? ", " : "") << "\"" << metrics[i].name
           << "\": {\"value\": " << jsonNum(metrics[i].value)
           << ", \"unit\": \"" << metrics[i].unit << "\"}";
    os << "}}";
    return os.str();
}

void
Bench::writeProvenance(const std::string &result) const
{
    std::ofstream os(opt_.jsonPath);
    os << "{\"benchmark\": \"sibyl_bench\", \"workload\": "
       << scenario::jsonQuote(opt_.workload)
       << ", \"mode\": \"" << (runnerMode_ ? "runner" : "in-process")
       << "\", \"seed\": " << opt_.seed
       << ", \"trace_seed\": " << traceSeed(opt_.seed)
       << ", \"seconds\": " << jsonNum(opt_.seconds)
       << ", \"traced\": " << (opt_.traced ? "true" : "false")
       << ", \"smoke\": " << (opt_.smoke ? "true" : "false")
       << ", \"threads\": " << (runnerMode_ ? benchThreads() : 1u)
       << ", \"nproc\": " << std::thread::hardware_concurrency()
       << ", \"commit\": " << scenario::jsonQuote(SIBYL_BENCH_COMMIT)
       << ", \"dirty\": " << (SIBYL_BENCH_DIRTY ? "true" : "false")
       << ", \"compiler\": " << scenario::jsonQuote(SIBYL_BENCH_COMPILER)
       << ", \"build_type\": " << scenario::jsonQuote(SIBYL_BENCH_BUILD_TYPE)
       << ", \"flags\": " << scenario::jsonQuote(SIBYL_BENCH_FLAGS)
       << ", \"requests_per_episode\": " << requestsPerEpisode_
       << ", \"episodes\": " << episodes_ << ", \"setups\": " << setups_
       << ", \"sim_latency_us\": " << jsonNum(simLatencyUs_)
       << ", \"raw_throughput_rps\": " << jsonNum(rawThroughputRps_)
       << ", \"host_speed\": " << jsonNum(med("host_speed"))
       << ", \"result\": " << result << "}\n";
    if (!os)
        std::cerr << "sibyl_bench: could not write " << opt_.jsonPath
                  << "\n";
}

int
Bench::report() const
{
    const std::vector<Metric> metrics = opt_.traced ? perLayer() : endToEnd();
    std::cerr << "sibyl_bench: " << opt_.workload << " seed " << opt_.seed
              << ": " << episodes_ << " episodes of " << requestsPerEpisode_
              << " requests, " << setups_ << " set-ups, mean simulated "
              << "latency " << jsonNum(simLatencyUs_) << " us, raw "
              << "throughput " << jsonNum(rawThroughputRps_)
              << " req/s, host speed " << jsonNum(med("host_speed"))
              << "\n";
    for (const Metric &m : metrics)
        std::cerr << "  " << m.name << " = " << jsonNum(m.value) << " "
                  << m.unit << "\n";
    const std::string result =
        resultJson(correct_, attempted_, failed_, metrics);
    if (!opt_.jsonPath.empty())
        writeProvenance(result);
    if (!opt_.spansDir.empty()) {
        std::filesystem::create_directories(opt_.spansDir);
        std::ofstream os(opt_.spansDir + "/" + opt_.workload + ".jsonl");
        tracer_.writeRaw(os, originNs_);
    }
    std::cout << result << std::endl;
    return correct_ ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseOptions(argc, argv);
    try {
        Bench bench(opt);
        bench.run();
        return bench.report();
    } catch (const std::exception &e) {
        std::cerr << "sibyl_bench: " << e.what() << "\n";
        return 2;
    }
}
