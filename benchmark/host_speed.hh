/**
 * @file
 * Host-speed reference for the benchmark's throughput metric.
 *
 * The reference host is a shared VM whose speed drifts by about +-15%
 * with its neighbours' load, in spells of seconds to minutes, so runs of
 * the same code a few minutes apart differ by more than any useful
 * regression bound. The probe times a fixed piece of reference work
 * right after every episode; the episode's time is scaled by
 * kReferenceSeconds / (that probe time), which reports throughput at a
 * fixed host speed. Over 14 runs of 5 episodes each, this cut the
 * run-to-run spread of single-threaded throughput by about half.
 *
 * The work mixes small dense float products (like the agents' networks)
 * with dependent loads from a 1 MiB table (like the metadata table). It
 * is the benchmark's own code, identical on both sides of an A/B
 * comparison, so it cannot hide a change to the library.
 */

#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "spans.hh"

namespace sibyl::bench
{

class HostSpeedProbe
{
  public:
    /** Median time of measure() on the reference host (a 4-core Xeon VM
     *  with 2 MiB of L2 per core). */
    static constexpr double kReferenceSeconds = 0.065;

    HostSpeedProbe() : ring_(kRingEntries)
    {
        // Sattolo's shuffle: one cycle through every entry, so the walk
        // touches the whole table in an order the prefetcher cannot
        // follow.
        for (std::uint32_t i = 0; i < kRingEntries; i++)
            ring_[i] = i;
        std::uint64_t x = 0x9E3779B97F4A7C15ull;
        for (std::uint32_t i = kRingEntries - 1; i > 0; i--) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            std::swap(ring_[i], ring_[x % i]);
        }
        measure(); // fault the table in and warm the caches
    }

    /** Wall seconds of one round of the reference work on this thread. */
    double
    measure()
    {
        const std::uint64_t start = nowNs();
        float m[32 * 32], v[32], o[32];
        for (int i = 0; i < 32 * 32; i++)
            m[i] = 1.0f + static_cast<float>(i % 7) * 1e-4f;
        for (int i = 0; i < 32; i++)
            v[i] = 1.0f;
        float acc = 0.0f;
        for (int r = 0; r < 120000; r++) {
            for (int i = 0; i < 32; i++) {
                float s = 0.0f;
                for (int j = 0; j < 32; j++)
                    s += m[i * 32 + j] * v[j];
                o[i] = s;
            }
            v[r & 31] = o[(r * 7) & 31] * 0.5f;
            acc += o[r & 31];
        }
        std::uint32_t x = 0;
        for (int k = 0; k < 4000000; k++)
            x = ring_[x];
        sink_ = static_cast<std::uint32_t>(acc) ^ x;
        return secondsSince(start);
    }

  private:
    static constexpr std::uint32_t kRingEntries = 1u << 18; // 1 MiB

    std::vector<std::uint32_t> ring_;
    volatile std::uint32_t sink_ = 0; ///< keeps the work observable
};

} // namespace sibyl::bench
