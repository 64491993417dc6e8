/**
 * @file
 * Regenerates Fig. 4: the execution timeline of the rsrch_0 workload —
 * accessed logical addresses and request sizes over time, demonstrating
 * the dynamic phase behaviour an adaptive policy must track.
 */

#include <cstdio>
#include <iostream>

#include "bench_util.hh"
#include "common/table.hh"
#include "trace/trace_stats.hh"

using namespace sibyl;

// GCC 12 reports a spurious -Wrestrict overlap inside libstdc++'s
// inlined operator+(const char *, std::string &&) ("S" + to_string
// below); the copy it flags cannot overlap. Silenced for this file's
// main() only.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wrestrict"

int
main()
{
    bench::banner("Fig. 4: timeline of accessed logical addresses and "
                  "request sizes during rsrch_0");

    trace::Trace t = trace::makeWorkload("rsrch_0");
    auto timeline = trace::sampleTimeline(t, 60);

    TextTable tab;
    tab.header({"time [s]", "logical page", "request size [pages]"});
    for (const auto &pt : timeline)
        tab.addRow({cell(pt.timeSec, 3), cell(pt.page),
                    cell(std::uint64_t{pt.sizePages})});
    tab.print(std::cout);

    // Per-phase address-range summary: shows the hot region drifting.
    std::printf("\nPer-sixth hot-region drift (mean accessed page):\n");
    TextTable drift;
    drift.header({"slice", "mean page", "mean size [pages]"});
    std::size_t slice = t.size() / 6;
    for (int s = 0; s < 6; s++) {
        double pageSum = 0.0, sizeSum = 0.0;
        for (std::size_t i = s * slice; i < (s + 1) * slice; i++) {
            pageSum += static_cast<double>(t[i].page);
            sizeSum += t[i].sizePages;
        }
        drift.addRow({"S" + std::to_string(s),
                      cell(pageSum / static_cast<double>(slice), 1),
                      cell(sizeSum / static_cast<double>(slice), 2)});
    }
    drift.print(std::cout);
    return 0;
}

#pragma GCC diagnostic pop
