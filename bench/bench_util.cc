#include "bench_util.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>

#include "common/logging.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "scenario/json.hh"
#include "sim/parallel_runner.hh"

namespace sibyl::bench
{

double
metricValue(Metric metric, const sim::PolicyResult &r)
{
    switch (metric) {
      case Metric::NormalizedLatency:
        return r.normalizedLatency;
      case Metric::NormalizedIops:
        return r.normalizedIops;
      case Metric::EvictionFraction:
        return r.metrics.evictionFraction;
      case Metric::FastPreference:
        return r.metrics.fastPlacementPreference;
    }
    return 0.0;
}

const char *
metricName(Metric metric)
{
    switch (metric) {
      case Metric::NormalizedLatency:
        return "avg request latency (normalized to Fast-Only)";
      case Metric::NormalizedIops:
        return "request throughput IOPS (normalized to Fast-Only)";
      case Metric::EvictionFraction:
        return "eviction fraction (evicting requests / all requests)";
      case Metric::FastPreference:
        return "preference for fast storage (#fast / #all placements)";
    }
    return "";
}

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

void
banner(const std::string &title)
{
    std::printf("==============================================================\n");
    std::printf("%s\n", title.c_str());
    std::printf("==============================================================\n");
}

void
runLineup(scenario::ScenarioSpec s, const std::string &title,
          Metric metric, const std::string &jsonPath)
{
    banner(title);

    // Mixed workloads split the request budget across their components.
    if (s.mixedWorkloads)
        s.traceLen /= 2;
    const auto records = scenario::runScenario(s);

    const std::size_t nSeeds = s.seeds.size();
    const bool multiSeed = nSeeds > 1;
    for (std::size_t ci = 0; ci < s.hssConfigs.size(); ci++) {
        std::printf("\n[%s]  metric: %s%s\n", s.hssConfigs[ci].c_str(),
                    metricName(metric),
                    multiSeed ? "  (mean±95% CI over seeds)" : "");
        TextTable tab;
        std::vector<std::string> header = {"workload"};
        header.insert(header.end(), s.policies.begin(), s.policies.end());
        tab.header(header);

        std::vector<double> sums(s.policies.size(), 0.0);
        std::vector<double> seedVals(nSeeds);
        for (std::size_t wi = 0; wi < s.workloads.size(); wi++) {
            std::vector<std::string> row = {s.workloads[wi]};
            for (std::size_t pi = 0; pi < s.policies.size(); pi++) {
                for (std::size_t si = 0; si < nSeeds; si++)
                    seedVals[si] = metricValue(
                        metric,
                        records[recordIndex(s, ci, wi, pi, si)].result);
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
        for (double sum : sums)
            avg.push_back(
                cell(sum / static_cast<double>(s.workloads.size()), 3));
        tab.addRow(avg);
        tab.print(std::cout);
    }
    std::printf("\n");

    if (!jsonPath.empty()) {
        if (sim::writeResultsJsonFile(jsonPath, records, s.name))
            std::printf("wrote %s\n", jsonPath.c_str());
        else
            std::printf("WARNING: could not write %s\n",
                        jsonPath.c_str());
    }
}

std::size_t
requestOverride(std::size_t dflt)
{
    const char *env = std::getenv("SIBYL_BENCH_REQUESTS");
    if (!env || !*env)
        return dflt;
    // A typo'd override must fail the run, not silently shrink it to
    // garbage ("3oo" -> 3) or fall back to the full-size bench.
    char *end = nullptr;
    const unsigned long long v = std::strtoull(env, &end, 10);
    if (*end != '\0' || v == 0)
        fatal(std::string("SIBYL_BENCH_REQUESTS: not a positive "
                          "integer: \"") +
              env + "\"");
    return static_cast<std::size_t>(v);
}

std::size_t
recordIndex(const scenario::ScenarioSpec &s, std::size_t ci,
            std::size_t wi, std::size_t pi, std::size_t si)
{
    return ((ci * s.workloads.size() + wi) * s.policies.size() + pi) *
               s.seeds.size() +
           si;
}

double
meanOverWorkloads(const scenario::ScenarioSpec &s,
                  const std::vector<sim::RunRecord> &records,
                  std::size_t ci, std::size_t pi,
                  const std::function<double(const sim::RunRecord &)> &get,
                  std::size_t si)
{
    double sum = 0.0;
    for (std::size_t wi = 0; wi < s.workloads.size(); wi++)
        sum += get(records.at(recordIndex(s, ci, wi, pi, si)));
    return sum / static_cast<double>(s.workloads.size());
}

std::shared_ptr<std::vector<double>>
collectPolicyScalar(std::vector<sim::RunSpec> &specs,
                    std::function<double(policies::PlacementPolicy &)> get)
{
    auto out = std::make_shared<std::vector<double>>(specs.size(), 0.0);
    for (std::size_t i = 0; i < specs.size(); i++) {
        auto prev = specs[i].policyFinish;
        specs[i].policyFinish = [out, i, get,
                                 prev](policies::PlacementPolicy &p) {
            if (prev)
                prev(p);
            (*out)[i] = get(p);
        };
    }
    return out;
}

void
BenchJson::add(const std::string &key, double value)
{
    metrics_.emplace_back(key, value);
}

bool
BenchJson::writeTo(const std::string &path) const
{
    // In-memory serialize, then write-tmp + atomic-rename: a bench
    // killed mid-emit never leaves a truncated baseline file.
    std::ostringstream out;
    out << "{\n  \"bench\": \"" << benchName_ << "\",\n  \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); i++) {
        out << (i ? ",\n    " : "\n    ");
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.6g", metrics_[i].second);
        out << '"' << metrics_[i].first << "\": " << buf;
    }
    out << "\n  }\n}\n";
    return scenario::writeTextFileAtomic(path, out.str());
}

} // namespace sibyl::bench
