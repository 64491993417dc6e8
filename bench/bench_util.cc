#include "bench_util.hh"

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/logging.hh"
#include "scenario/json.hh"

namespace sibyl::bench
{

void
banner(const std::string &title)
{
    std::printf("==============================================================\n");
    std::printf("%s\n", title.c_str());
    std::printf("==============================================================\n");
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

double
meanOverWorkloads(const scenario::ScenarioSpec &s,
                  const std::vector<sim::RunRecord> &records,
                  std::size_t ci, std::size_t pi,
                  const std::function<double(const sim::RunRecord &)> &get,
                  std::size_t si)
{
    double sum = 0.0;
    for (std::size_t wi = 0; wi < s.workloads.size(); wi++)
        sum += get(records.at(s.recordIndex(ci, wi, pi, si)));
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
