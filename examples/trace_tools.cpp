/**
 * @file
 * Working with traces: synthesize a workload, characterize it (the
 * Table 4 statistics), persist it to the native CSV format, read it
 * back, and replay an MSRC-format trace if one is available.
 *
 * Usage:
 *   ./build/examples/trace_tools [path/to/msrc.csv]
 */

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "sim/parallel_runner.hh"
#include "trace/trace_io.hh"
#include "trace/trace_stats.hh"
#include "trace/workloads.hh"

using namespace sibyl;

namespace
{

void
characterize(const trace::Trace &t)
{
    auto s = trace::TraceStats::compute(t);
    std::printf("  %zu requests | %.1f%% writes | avg %.1f KiB/req | "
                "avg access count %.1f | %llu unique pages | %.2f s\n",
                t.size(), s.writePct, s.avgRequestSizeKiB,
                s.avgAccessCount,
                static_cast<unsigned long long>(s.uniquePages),
                s.durationSec);
}

} // namespace

int
main(int argc, char **argv)
{
    // 1. Synthesize one of the paper's workloads and characterize it.
    trace::Trace t = trace::makeWorkload("mds_0", 10000);
    std::printf("synthesized %s:\n", t.name().c_str());
    characterize(t);

    // 2. Round-trip through the native CSV format.
    std::stringstream buf;
    trace::writeNativeCsv(buf, t);
    trace::Trace back = trace::readNativeCsv(buf, "mds_0_reloaded");
    std::printf("reloaded %s:\n", back.name().c_str());
    characterize(back);

    // 3. Mix two independent applications (Table 5 style).
    trace::Trace mix = trace::makeMixedWorkload("mix4", 5000);
    std::printf("mixed workload %s:\n", mix.name().c_str());
    characterize(mix);

    // 4. Optionally replay a real MSRC CSV through the simulator.
    if (argc > 1) {
        try {
            trace::Trace real = trace::readMsrcCsvFile(argv[1]);
            std::printf("loaded MSRC trace %s:\n", real.name().c_str());
            characterize(real);
            sim::RunSpec spec;
            spec.policy = "Sibyl";
            spec.hssConfig = "H&M";
            spec.workload = real.name();
            spec.traceLen = real.size();
            spec.externalTrace =
                std::make_shared<const trace::Trace>(std::move(real));
            const auto rec = sim::ParallelRunner().runAll({spec})[0];
            if (rec.failed())
                throw std::runtime_error(rec.error);
            std::printf("  Sibyl on %s: %.1f us avg (%.2fx Fast-Only)\n",
                        spec.workload.c_str(),
                        rec.result.metrics.avgLatencyUs,
                        rec.result.normalizedLatency);
        } catch (const std::exception &e) {
            std::printf("could not replay %s: %s\n", argv[1], e.what());
        }
    } else {
        std::printf("tip: pass a path to an MSRC-format CSV to replay a "
                    "real trace.\n");
    }
    return 0;
}
