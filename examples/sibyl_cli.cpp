/**
 * @file
 * sibyl_cli — command-line front end to the full simulation stack.
 *
 * Runs any combination of workload x HSS configuration x policies and
 * prints a result table (or CSV), with optional agent checkpointing
 * across runs. This is the "downstream user" entry point: everything
 * the benches do is reachable from here without writing C++.
 *
 * --scenario runs a scenario file. When the file has a "report"
 * block, the output is that figure's report: its title as a banner,
 * one table per HSS config of the report's metric (workloads x
 * policies, mean±95% CI over seeds, an AVG row), then the reference
 * text. The paper's lineup figures are such files under
 * scenarios/paper/. --requests N sets the scenario's traceLen.
 *
 * Examples:
 *   sibyl_cli --workload prxy_1 --config H&M
 *   sibyl_cli --workload rsrch_0 --config H&L --policy Sibyl \
 *             --policy CDE --policy Oracle --requests 40000
 *   sibyl_cli --workload usr_0 --trace /path/to/msrc.csv --csv
 *   sibyl_cli --workload prxy_1 --save-agent /tmp/agent.ckpt
 *   sibyl_cli --workload prxy_1 --load-agent /tmp/agent.ckpt
 *   sibyl_cli --config "H&M&L_SSD&L" --policy Sibyl \
 *             --policy Heuristic-Multi-Tier
 *   sibyl_cli --exploration linear --epsilon 0.001
 *   sibyl_cli --degrade-fast 2000:5000:30 --policy Sibyl --policy CDE
 *   sibyl_cli --policy Sibyl --policy CDE --policy Oracle --threads 4 \
 *             --json results.json
 *   sibyl_cli --scenario scenarios/smoke.json --json results.json
 *   sibyl_cli --scenario scenarios/paper/fig9_latency.json \
 *             --requests 3000 --json BENCH_fig9.json
 *   sibyl_cli --campaign scenarios/campaign_smoke.json \
 *             --json merged.json
 *   sibyl_cli --list-policies
 */

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "common/stats.hh"
#include "common/table.hh"
#include "core/sibyl_policy.hh"
#include "device/fault_model.hh"
#include "rl/checkpoint.hh"
#include "scenario/campaign.hh"
#include "scenario/policy_factory.hh"
#include "scenario/scenario_spec.hh"
#include "sim/parallel_runner.hh"
#include "trace/trace_io.hh"
#include "trace/workloads.hh"

using namespace sibyl;

namespace
{

struct Options
{
    std::string workload = "prxy_1";
    std::string tracePath;          ///< MSRC CSV instead of synthesizer
    std::string config = "H&M";
    std::vector<std::string> policies;
    std::size_t requests = 0;       ///< 0 = profile default
    bool requestsSet = false;       ///< --requests given explicitly
    double fastFrac = 0.10;
    std::uint64_t seed = 42;
    double learningRate = 0.0;      ///< 0 = SibylConfig default
    double epsilon = -1.0;          ///< <0 = SibylConfig default
    std::string exploration;        ///< "" = SibylConfig default kind
    std::optional<double> temperature; ///< unset = SibylConfig default
    std::string degradeFast;        ///< "startMs:endMs:mult" fault window
    bool csv = false;
    std::string saveAgent;
    std::string loadAgent;
    unsigned threads = 0;           ///< 0 = all cores, 1 = serial
    bool threadsSet = false;        ///< --threads given explicitly
    std::string jsonPath;           ///< machine-readable result dump
    std::string scenarioPath;       ///< run a scenario file instead
    std::string campaignPath;       ///< run a campaign manifest instead
    std::string checkpointDir;      ///< campaign journal directory
    bool resume = false;            ///< skip journaled campaign runs
    bool listPolicies = false;      ///< print the policy registry
};

void
usage(const char *prog)
{
    std::printf(
        "usage: %s [options]\n"
        "  --workload NAME     synthetic profile (Table 4/FileBench "
        "name; default prxy_1)\n"
        "  --trace PATH        replay an MSRC-format CSV instead\n"
        "  --config CFG        H&M | H&L | H&M&L | H&M&L_SSD | "
        "H&M&L_SSD&L (default H&M)\n"
        "  --policy NAME       repeatable: Slow-Only CDE HPS Archivist "
        "RNN-HSS Sibyl Oracle\n"
        "                      Heuristic-Multi-Tier "
        "(default: Sibyl CDE Oracle)\n"
        "  --requests N        truncate/scale the workload (0 = "
        "profile default)\n"
        "  --fast-frac F       fast-device capacity as working-set "
        "fraction (default 0.10)\n"
        "  --lr ALPHA          Sibyl learning rate override\n"
        "  --epsilon EPS       Sibyl exploration rate override (the "
        "floor for\n"
        "                      linear, exp and vdbe)\n"
        "  --exploration KIND  constant | linear | exp | boltzmann | "
        "vdbe (default constant)\n"
        "  --temperature T     Boltzmann softmax temperature "
        "(default 0.05)\n"
        "  --degrade-fast S:E:M  degrade the fast device by factor M\n"
        "                      between S ms and E ms of simulated time\n"
        "  --seed S            device-jitter seed (default 42)\n"
        "  --save-agent PATH   checkpoint Sibyl's learned policy "
        "after the run\n"
        "  --load-agent PATH   warm-start Sibyl from a checkpoint\n"
        "  --threads N         run the policies across N worker "
        "threads\n"
        "                      (0 = all cores; results are identical "
        "at any N)\n"
        "  --json PATH         also dump machine-readable results\n"
        "  --csv               emit CSV instead of an aligned table\n"
        "  --scenario PATH     run a declarative scenario file (JSON\n"
        "                      ScenarioSpec: policies x workloads x\n"
        "                      configs x seeds); a file with a report\n"
        "                      block prints that figure's tables\n"
        "                      (scenarios/paper/); --requests sets its\n"
        "                      traceLen, --threads/--json/--csv still\n"
        "                      apply, other experiment flags are\n"
        "                      ignored; --json names the document's\n"
        "                      campaign after the scenario\n"
        "  --campaign PATH     run a campaign manifest (JSON naming\n"
        "                      several scenario files with per-entry\n"
        "                      tag/requests/seeds overrides) as ONE\n"
        "                      merged batch; --json writes the merged\n"
        "                      results keyed by (campaign, scenario,\n"
        "                      run) for sibyl_regress\n"
        "  --checkpoint-dir D  journal each finished campaign run into\n"
        "                      D (crash-safe: write-tmp + atomic\n"
        "                      rename); with --resume, journaled runs\n"
        "                      are skipped and the merged output is\n"
        "                      byte-identical to an uninterrupted run\n"
        "  --resume            skip campaign runs already journaled in\n"
        "                      --checkpoint-dir\n"
        "  --list-policies     print every registered policy descriptor\n"
        "                      and exit\n",
        prog);
}

/** Parse the value of numeric flag @p flag strictly: the whole string
 *  must be a finite number (floating @p T) or a non-negative integer
 *  that fits @p T. Prints an error naming the flag otherwise. */
template <typename T>
bool
parseNumber(const std::string &flag, const char *v, T &out)
{
    char *end = nullptr;
    errno = 0;
    bool ok = false;
    if constexpr (std::is_floating_point_v<T>) {
        const double x = std::strtod(v, &end);
        ok = std::isfinite(x);
        out = x;
    } else {
        const unsigned long long x = std::strtoull(v, &end, 10);
        ok = std::isdigit(static_cast<unsigned char>(v[0])) &&
             errno != ERANGE && x <= std::numeric_limits<T>::max();
        out = static_cast<T>(x);
    }
    if (ok && end != v && *end == '\0')
        return true;
    std::fprintf(stderr, "%s wants %s, got \"%s\"\n", flag.c_str(),
                 std::is_floating_point_v<T> ? "a finite number"
                                             : "a non-negative integer",
                 v);
    return false;
}

bool
parseArgs(int argc, char **argv, Options &opt)
{
    auto need = [&](int &i) -> const char * {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "missing value for %s\n", argv[i]);
            return nullptr;
        }
        return argv[++i];
    };
    auto number = [&](int &i, auto &out) {
        const std::string flag = argv[i];
        const char *v = need(i);
        return v && parseNumber(flag, v, out);
    };
    for (int i = 1; i < argc; i++) {
        const std::string a = argv[i];
        const char *v = nullptr;
        if (a == "--help" || a == "-h") {
            usage(argv[0]);
            return false;
        } else if (a == "--workload") {
            if (!(v = need(i)))
                return false;
            opt.workload = v;
        } else if (a == "--trace") {
            if (!(v = need(i)))
                return false;
            opt.tracePath = v;
        } else if (a == "--config") {
            if (!(v = need(i)))
                return false;
            opt.config = v;
        } else if (a == "--policy") {
            if (!(v = need(i)))
                return false;
            opt.policies.push_back(v);
        } else if (a == "--requests") {
            if (!number(i, opt.requests))
                return false;
            opt.requestsSet = true;
        } else if (a == "--fast-frac") {
            if (!number(i, opt.fastFrac))
                return false;
        } else if (a == "--lr") {
            if (!number(i, opt.learningRate))
                return false;
        } else if (a == "--epsilon") {
            if (!number(i, opt.epsilon))
                return false;
        } else if (a == "--exploration") {
            if (!(v = need(i)))
                return false;
            opt.exploration = v;
        } else if (a == "--temperature") {
            if (!number(i, opt.temperature.emplace()))
                return false;
        } else if (a == "--degrade-fast") {
            if (!(v = need(i)))
                return false;
            opt.degradeFast = v;
        } else if (a == "--seed") {
            if (!number(i, opt.seed))
                return false;
        } else if (a == "--save-agent") {
            if (!(v = need(i)))
                return false;
            opt.saveAgent = v;
        } else if (a == "--load-agent") {
            if (!(v = need(i)))
                return false;
            opt.loadAgent = v;
        } else if (a == "--threads") {
            if (!number(i, opt.threads))
                return false;
            opt.threadsSet = true;
        } else if (a == "--scenario") {
            if (!(v = need(i)))
                return false;
            opt.scenarioPath = v;
        } else if (a == "--campaign") {
            if (!(v = need(i)))
                return false;
            opt.campaignPath = v;
        } else if (a == "--checkpoint-dir") {
            if (!(v = need(i)))
                return false;
            opt.checkpointDir = v;
        } else if (a == "--resume") {
            opt.resume = true;
        } else if (a == "--list-policies") {
            opt.listPolicies = true;
        } else if (a == "--json") {
            if (!(v = need(i)))
                return false;
            opt.jsonPath = v;
        } else if (a == "--csv") {
            opt.csv = true;
        } else {
            std::fprintf(stderr, "unknown option %s\n", a.c_str());
            usage(argv[0]);
            return false;
        }
    }
    if (opt.policies.empty())
        opt.policies = {"Sibyl", "CDE", "Oracle"};
    return true;
}

} // namespace

namespace
{

/** --list-policies: dump the registry as a table. */
int
listPolicies()
{
    TextTable tab;
    tab.header({"policy", "description"});
    for (const auto &info :
         scenario::PolicyFactory::instance().policies())
        tab.addRow({info.name + (info.prefix ? " (prefix)" : ""),
                    info.description});
    tab.print(std::cout);
    std::printf("\nAny name accepts {key=value,...} parameters, e.g. "
                "Sibyl{gamma=0.5,hidden=40x60}.\n");
    return 0;
}

/** Print every failed record to stderr; returns the failure count. */
std::size_t
reportFailures(const std::vector<sim::RunRecord> &records)
{
    std::size_t failures = 0;
    for (const auto &rec : records) {
        if (!rec.failed())
            continue;
        failures++;
        std::fprintf(stderr,
                     "FAILED %s/%s/%s seed=%llu (attempt %u): %s\n",
                     rec.spec.policy.c_str(),
                     rec.spec.workload.c_str(),
                     rec.spec.hssConfig.c_str(),
                     static_cast<unsigned long long>(rec.spec.seed),
                     rec.attempts, rec.error.c_str());
    }
    return failures;
}

/** Append @p metrics to @p row, or, for a failed run (which has no
 *  metrics), "FAILED" in the first metric column and "-" in the rest. */
void
appendMetrics(std::vector<std::string> &row, const sim::RunRecord &rec,
              std::vector<std::string> metrics)
{
    if (rec.failed()) {
        metrics.assign(metrics.size(), "-");
        metrics.front() = "FAILED";
    }
    row.insert(row.end(), metrics.begin(), metrics.end());
}

/**
 * Half-width of a two-sided 95% confidence interval for the mean of
 * @p samples (Student's t for small n, 1.96 beyond the table). Zero
 * for fewer than two samples.
 */
double
confidenceHalfWidth95(const std::vector<double> &samples)
{
    if (samples.size() < 2)
        return 0.0;
    RunningStat stat;
    for (double s : samples)
        stat.add(s);
    // Two-sided 95% t critical values for df = 1..30; beyond that the
    // normal 1.96 is within a percent.
    static const double tTable[] = {
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306,
        2.262,  2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120,
        2.110,  2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064,
        2.060,  2.056, 2.052, 2.048, 2.045, 2.042,
    };
    const std::size_t df = samples.size() - 1;
    const double t = df <= 30 ? tTable[df - 1] : 1.96;
    return t * stat.stddev() /
           std::sqrt(static_cast<double>(samples.size()));
}

/**
 * Print @p records (in expand() order) as @p s's report asks: one
 * table of the report's metric per HSS configuration, policies as
 * columns, workloads as rows, and an AVG row holding the mean over
 * workloads, as the paper reports. With more than one seed every
 * cell is the across-seed mean with a 95% confidence half-width
 * ("m±c"). A cell with a failed run says FAILED, and its policy's
 * AVG "-".
 */
void
printReport(const scenario::ScenarioSpec &s,
            const std::vector<sim::RunRecord> &records, bool csv)
{
    const sim::ResultScalar &metric =
        *sim::findResultScalar(s.report->metric);
    const std::size_t nSeeds = s.seeds.size();
    const bool multiSeed = nSeeds > 1;
    for (std::size_t ci = 0; ci < s.hssConfigs.size(); ci++) {
        std::printf("\n[%s]  metric: %s%s\n", s.hssConfigs[ci].c_str(),
                    scenario::reportMetricCaption(s.report->metric),
                    multiSeed ? "  (mean±95% CI over seeds)" : "");
        TextTable tab;
        std::vector<std::string> header = {"workload"};
        header.insert(header.end(), s.policies.begin(), s.policies.end());
        tab.header(header);

        std::vector<double> sums(s.policies.size(), 0.0);
        std::vector<bool> failed(s.policies.size(), false);
        std::vector<double> seedVals(nSeeds);
        for (std::size_t wi = 0; wi < s.workloads.size(); wi++) {
            std::vector<std::string> row = {s.workloads[wi]};
            for (std::size_t pi = 0; pi < s.policies.size(); pi++) {
                bool cellFailed = false;
                for (std::size_t si = 0; si < nSeeds; si++) {
                    const sim::RunRecord &rec =
                        records[s.recordIndex(ci, wi, pi, si)];
                    cellFailed |= rec.failed();
                    seedVals[si] = metric.get(rec.result);
                }
                if (cellFailed) {
                    failed[pi] = true;
                    row.push_back("FAILED");
                    continue;
                }
                double mean = 0.0;
                for (double v : seedVals)
                    mean += v;
                mean /= static_cast<double>(nSeeds);
                sums[pi] += mean;
                if (multiSeed) {
                    row.push_back(cell(mean, 3) + "±" +
                                  cell(confidenceHalfWidth95(seedVals),
                                       3));
                } else {
                    row.push_back(cell(mean, 3));
                }
            }
            tab.addRow(row);
        }
        std::vector<std::string> avg = {"AVG"};
        for (std::size_t pi = 0; pi < sums.size(); pi++)
            avg.push_back(failed[pi]
                              ? "-"
                              : cell(sums[pi] / static_cast<double>(
                                                    s.workloads.size()),
                                     3));
        tab.addRow(avg);
        if (csv)
            tab.printCsv(std::cout);
        else
            tab.print(std::cout);
    }
    std::printf("\n");
}

/** Print the run table of a scenario without a report: one row per
 *  run. */
void
printRuns(const std::vector<sim::RunRecord> &records, bool csv)
{
    TextTable tab;
    tab.header({"config", "workload", "policy", "seed",
                "avg latency (us)", "vs Fast-Only", "IOPS",
                "evictions", "fast pref"});
    for (const auto &rec : records) {
        const auto &r = rec.result;
        std::vector<std::string> row = {
            rec.spec.hssConfig, rec.spec.workload, rec.spec.policy,
            cell(std::uint64_t{rec.spec.seed})};
        appendMetrics(row, rec,
                      {cell(r.metrics.avgLatencyUs, 1),
                       cell(r.normalizedLatency, 3),
                       cell(r.metrics.iops, 0),
                       cell(r.metrics.evictionFraction, 3),
                       cell(r.metrics.fastPlacementPreference, 3)});
        tab.addRow(row);
    }
    if (csv)
        tab.printCsv(std::cout);
    else
        tab.print(std::cout);
}

/** Print the standard report banner. */
void
banner(const std::string &title)
{
    std::printf("==============================================================\n");
    std::printf("%s\n", title.c_str());
    std::printf("==============================================================\n");
}

/** --scenario: run a declarative scenario file. */
int
runScenarioFile(const Options &opt)
{
    try {
        scenario::ScenarioSpec spec =
            scenario::loadScenarioFile(opt.scenarioPath);
        if (opt.threadsSet)
            spec.numThreads = opt.threads;
        if (opt.requestsSet)
            spec.traceLen = opt.requests;

        if (spec.report)
            banner(spec.report->title);
        else
            std::printf("scenario %s: %zu policies x %zu workloads x "
                        "%zu configs x %zu seeds\n",
                        spec.name.c_str(), spec.policies.size(),
                        spec.workloads.size(), spec.hssConfigs.size(),
                        spec.seeds.size());

        const auto records = scenario::runScenario(spec);
        if (spec.report)
            printReport(spec, records, opt.csv);
        else
            printRuns(records, opt.csv);

        if (!opt.jsonPath.empty()) {
            if (sim::writeResultsJsonFile(opt.jsonPath, records,
                                          spec.name))
                std::printf("wrote %s\n", opt.jsonPath.c_str());
            else {
                std::fprintf(stderr, "could not write %s\n",
                             opt.jsonPath.c_str());
                return 1;
            }
        }
        if (spec.report && !spec.report->reference.empty())
            std::printf("%s\n", spec.report->reference.c_str());
        return reportFailures(records) == 0 ? 0 : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
}

/** --campaign: run a campaign manifest as one merged batch. */
int
runCampaignFile(const Options &opt)
{
    try {
        scenario::CampaignSpec spec =
            scenario::loadCampaignFile(opt.campaignPath);
        if (opt.threadsSet)
            spec.numThreads = opt.threads;

        sim::ParallelConfig pcfg;
        pcfg.numThreads = spec.numThreads;
        sim::ParallelRunner runner(pcfg);
        scenario::CampaignCheckpoint ckpt;
        ckpt.dir = opt.checkpointDir;
        ckpt.resume = opt.resume;

        const auto result = scenario::runCampaign(spec, runner, ckpt);
        std::printf("campaign %s: %zu scenarios, %zu runs",
                    spec.name.c_str(), result.plan.scenarios.size(),
                    result.records.size());
        if (!ckpt.dir.empty())
            std::printf(" (%zu resumed from %s)",
                        result.resumedCount(), ckpt.dir.c_str());
        std::printf("\n");

        TextTable tab;
        tab.header({"scenario", "config", "workload", "policy", "seed",
                    "avg latency (us)", "vs Fast-Only", "IOPS",
                    "status"});
        for (const auto &cs : result.plan.scenarios) {
            for (std::size_t i = 0; i < cs.runCount; i++) {
                const std::size_t idx = cs.firstRun + i;
                const auto &rec = result.records[idx];
                const auto &r = rec.result;
                const bool resumed = idx < result.resumed.size() &&
                                     result.resumed[idx];
                tab.addRow({cs.tag, rec.spec.hssConfig,
                            rec.spec.workload, rec.spec.policy,
                            cell(std::uint64_t{rec.spec.seed}),
                            cell(r.metrics.avgLatencyUs, 1),
                            cell(r.normalizedLatency, 3),
                            cell(r.metrics.iops, 0),
                            rec.failed()
                                ? "FAILED"
                                : (resumed ? "resumed" : "ok")});
            }
        }
        if (opt.csv)
            tab.printCsv(std::cout);
        else
            tab.print(std::cout);

        if (!opt.jsonPath.empty()) {
            if (scenario::writeCampaignResultsJsonFile(opt.jsonPath,
                                                       spec, result))
                std::printf("wrote %s\n", opt.jsonPath.c_str());
            else {
                std::fprintf(stderr, "could not write %s\n",
                             opt.jsonPath.c_str());
                return 1;
            }
        }
        // Failed runs are structured records in the JSON (the gate
        // sees them), but the batch itself did not succeed.
        return reportFailures(result.records) == 0 ? 0 : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parseArgs(argc, argv, opt))
        return argc > 1 && std::string(argv[1]) == "--help" ? 0 : 2;

    if (opt.listPolicies)
        return listPolicies();
    if (!opt.scenarioPath.empty() && !opt.campaignPath.empty()) {
        std::fprintf(stderr,
                     "--scenario and --campaign are exclusive\n");
        return 2;
    }
    if (opt.resume && opt.checkpointDir.empty()) {
        std::fprintf(stderr, "--resume needs --checkpoint-dir\n");
        return 2;
    }
    if (!opt.checkpointDir.empty() && opt.campaignPath.empty()) {
        std::fprintf(stderr,
                     "--checkpoint-dir applies to --campaign runs\n");
        return 2;
    }
    if (!opt.campaignPath.empty())
        return runCampaignFile(opt);
    if (!opt.scenarioPath.empty())
        return runScenarioFile(opt);

    // Flags that can be malformed are checked before any trace is
    // loaded or synthesized.
    std::optional<device::DegradedWindow> degrade;
    if (!opt.degradeFast.empty()) {
        // "startMs:endMs:multiplier" -> a fault window on device 0,
        // checked by the same validator the FaultModel runs.
        double startMs = 0.0, endMs = 0.0, mult = 1.0;
        const bool parsed =
            std::sscanf(opt.degradeFast.c_str(), "%lf:%lf:%lf", &startMs,
                        &endMs, &mult) == 3;
        const device::DegradedWindow window{startMs * 1e3, endMs * 1e3,
                                            mult};
        const std::string err =
            parsed ? device::validateWindow(window) : "";
        if (!parsed || !err.empty()) {
            std::fprintf(stderr,
                         "--degrade-fast wants START_MS:END_MS:MULT%s%s\n",
                         err.empty() ? "" : ": ", err.c_str());
            return 2;
        }
        degrade = window;
    }

    core::SibylConfig sibylCfg;
    if (opt.learningRate > 0.0)
        sibylCfg.learningRate = opt.learningRate;
    if (opt.epsilon >= 0.0)
        sibylCfg.exploration.epsilon = opt.epsilon;
    if (opt.temperature)
        sibylCfg.exploration.temperature = *opt.temperature;
    if (!opt.exploration.empty()) {
        // The descriptor's explore= table names the kinds. The flag's
        // value goes in as that one parameter, never parsed, so it
        // cannot set other keys.
        scenario::PolicyDesc desc;
        desc.name = "Sibyl";
        desc.params = {{"explore", opt.exploration}};
        desc.raw = "Sibyl{explore=" + opt.exploration + "}";
        try {
            scenario::applySibylParams(sibylCfg, desc);
        } catch (const std::invalid_argument &e) {
            std::fprintf(stderr, "unknown --exploration %s: %s\n",
                         opt.exploration.c_str(), e.what());
            return 2;
        }
    }

    // Workload: synthesizer profile or a real MSRC CSV. A profile
    // workload goes through the runner's shared trace cache; a CSV is
    // loaded here and handed to every run as an external trace.
    std::shared_ptr<const trace::Trace> externalTrace;
    if (!opt.tracePath.empty()) {
        trace::Trace t = trace::readMsrcCsvFile(opt.tracePath);
        if (opt.requests > 0 && opt.requests < t.size())
            t = t.prefix(opt.requests);
        externalTrace =
            std::make_shared<const trace::Trace>(std::move(t));
    }

    sim::ParallelConfig pcfg;
    pcfg.numThreads = opt.threads;
    sim::ParallelRunner runner(pcfg);

    sim::RunSpec proto;
    proto.workload = opt.workload;
    proto.hssConfig = opt.config;
    proto.fastCapacityFrac = opt.fastFrac;
    proto.traceLen = opt.requests;
    proto.seed = opt.seed;
    proto.externalTrace = externalTrace;

    {
        const auto t = externalTrace
            ? externalTrace
            : runner.traceCache().get(proto.traceKey());
        const std::uint64_t pages = t->uniquePages();
        std::printf("workload %s: %zu requests, %llu unique pages "
                    "(%.1f MiB working set)\n",
                    t->name().c_str(), t->size(),
                    static_cast<unsigned long long>(pages),
                    static_cast<double>(pages * kPageSize) / (1 << 20));
    }

    proto.sibylCfg = sibylCfg;
    if (degrade) {
        const device::DegradedWindow window = *degrade;
        proto.specTweak = [=](std::vector<device::DeviceSpec> &specs) {
            specs[0].faults.windows.push_back(window);
        };
        // The fault window changes dynamics: tag it into the run key.
        proto.variantTag = "degrade-fast=" + opt.degradeFast;
        std::printf("fast device degraded x%.1f in [%.0f, %.0f] ms\n",
                    window.latencyMultiplier, window.startUs / 1e3,
                    window.endUs / 1e3);
    }

    // One spec per policy; the runner shards them across workers and
    // returns results in policy order regardless of scheduling.
    // Checkpoints are captured into per-run buffers on the worker
    // threads and written *after* runAll: several RL policies sharing
    // one --save-agent path must not race on the file, and the spec
    // order (not scheduling) decides which one the file keeps.
    std::vector<sim::RunSpec> specs;
    std::vector<std::string> savedCheckpoints(opt.policies.size());
    for (std::size_t i = 0; i < opt.policies.size(); i++) {
        const std::string &name = opt.policies[i];
        sim::RunSpec s = proto;
        s.policy = name;
        if (!opt.loadAgent.empty()) {
            const std::string loadPath = opt.loadAgent;
            // A failed warm-start throws: the run must not proceed
            // with a cold agent.
            s.policySetup = [name,
                             loadPath](policies::PlacementPolicy &p) {
                auto *sibyl = dynamic_cast<core::SibylPolicy *>(&p);
                if (!sibyl)
                    return;
                const auto err =
                    rl::loadCheckpointFile(sibyl->agent(), loadPath);
                if (!err.empty())
                    throw std::runtime_error("load-agent: " + err);
                std::printf("warm-started %s from %s\n", name.c_str(),
                            loadPath.c_str());
            };
        }
        if (!opt.saveAgent.empty()) {
            std::string *slot = &savedCheckpoints[i];
            s.policyFinish = [slot](policies::PlacementPolicy &p) {
                auto *sibyl = dynamic_cast<core::SibylPolicy *>(&p);
                if (!sibyl)
                    return;
                std::ostringstream out;
                rl::saveCheckpoint(sibyl->agent(), out);
                *slot = out.str();
            };
        }
        specs.push_back(std::move(s));
    }
    std::vector<sim::RunRecord> records;
    try {
        records = runner.runAll(specs);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }

    if (!opt.saveAgent.empty()) {
        // Last RL policy in --policy order wins, deterministically.
        for (std::size_t i = savedCheckpoints.size(); i-- > 0;) {
            if (savedCheckpoints[i].empty())
                continue;
            if (!scenario::writeTextFileAtomic(opt.saveAgent,
                                               savedCheckpoints[i])) {
                std::fprintf(stderr, "could not write %s\n",
                             opt.saveAgent.c_str());
                return 1;
            }
            std::printf("saved %s's learned policy to %s\n",
                        opt.policies[i].c_str(), opt.saveAgent.c_str());
            break;
        }
    }

    TextTable tab;
    tab.header({"policy", "avg latency (us)", "vs Fast-Only", "IOPS",
                "evictions", "fast pref", "energy (mJ)"});
    for (const auto &rec : records) {
        const auto &r = rec.result;
        std::vector<std::string> row = {rec.spec.policy};
        appendMetrics(row, rec,
                      {cell(r.metrics.avgLatencyUs, 1),
                       cell(r.normalizedLatency, 3),
                       cell(r.metrics.iops, 0),
                       cell(r.metrics.evictionFraction, 3),
                       cell(r.metrics.fastPlacementPreference, 3),
                       cell(r.totalEnergyMj, 1)});
        tab.addRow(row);
    }
    if (opt.csv)
        tab.printCsv(std::cout);
    else
        tab.print(std::cout);

    if (!opt.jsonPath.empty()) {
        if (sim::writeResultsJsonFile(opt.jsonPath, records))
            std::printf("wrote %s\n", opt.jsonPath.c_str());
        else {
            std::fprintf(stderr, "could not write %s\n",
                         opt.jsonPath.c_str());
            return 1;
        }
    }
    return reportFailures(records) == 0 ? 0 : 1;
}
