/**
 * @file
 * Span recorder for the benchmark's traced run.
 *
 * The traced run times the calls the benchmark makes into each layer's
 * public functions (outside-in: no span lives inside the library). Each
 * request gets one root span ("step") and one child span per layer call.
 * In memory the recorder keeps, per span kind, a count, a sum and a
 * fixed-size log-bucketed histogram, so recording allocates nothing on
 * the request path. A bounded raw sample of whole requests can be kept
 * and written as JSONL for offline inspection.
 */

#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <ostream>
#include <vector>

namespace sibyl::bench
{

using Clock = std::chrono::steady_clock;

inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
}

inline double
secondsSince(std::uint64_t startNs)
{
    return static_cast<double>(nowNs() - startNs) * 1e-9;
}

/** Layer calls the traced replica times. Step is the root of each
 *  request; every other kind is a direct child of it. */
enum SpanKind : int
{
    kStep,
    kAdvance,       ///< HybridSystem::advanceTo
    kCoreBegin,     ///< SibylPolicy::selectPlacementBegin, no training
    kTrainRound,    ///< SibylPolicy::selectPlacementBegin that trained
    kPolicySelect,  ///< heuristic policy decision (Begin resolves inline)
    kInferRow,      ///< ml::Network::inferRow
    kFromRow,       ///< selectPlacementFromRow
    kCoreObserve,   ///< SibylPolicy::observeOutcome (reward)
    kPolicyObserve, ///< heuristic observeOutcome (a no-op call)
    kServeRead,     ///< HybridSystem::serve, read, no FTL GC ran
    kServeWrite,    ///< HybridSystem::serve, write, no FTL GC ran
    kServeGc,       ///< HybridSystem::serve during which FTL GC ran
    kSpanKinds
};

inline const char *
spanName(int kind)
{
    static const char *const kNames[kSpanKinds] = {
        "step",           "hss.advance",   "core.begin",
        "rl.train_round", "policies.select", "ml.infer_row",
        "core.from_row",  "core.observe_outcome", "policies.observe",
        "hss.serve_read", "hss.serve_write", "hss.serve_gc"};
    return kNames[kind];
}

/**
 * Histogram of nanosecond durations: values below 256 ns are exact,
 * larger values fall in one of 128 buckets per power of two, so every
 * bucket is narrower than 1% of its lower edge. Fixed size; covers
 * durations up to 2^48 ns (about 78 hours).
 */
class LogHistogram
{
  public:
    void
    add(std::uint64_t ns)
    {
        counts_[index(ns)]++;
        total_++;
        max_ = std::max(max_, ns);
    }

    std::uint64_t count() const { return total_; }
    std::uint64_t max() const { return max_; }

    /** Midpoint of the bucket holding the ceil(p * count)-th smallest
     *  sample, clamped to the largest sample; 0 when empty. */
    double
    quantile(double p) const
    {
        if (total_ == 0)
            return 0.0;
        const auto rank = std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(
                   std::ceil(p * static_cast<double>(total_))));
        std::uint64_t seen = 0;
        for (std::size_t i = 0; i < counts_.size(); i++) {
            seen += counts_[i];
            if (seen >= rank) {
                const double mid = 0.5 * (static_cast<double>(low(i)) +
                                          static_cast<double>(low(i + 1)));
                return std::min(mid, static_cast<double>(max_));
            }
        }
        return static_cast<double>(max_);
    }

  private:
    static constexpr unsigned kSubBits = 7; // 128 buckets per octave
    static constexpr unsigned kOctaves = 41;

    static std::size_t
    index(std::uint64_t v)
    {
        if (v < (2u << kSubBits))
            return static_cast<std::size_t>(v);
        const unsigned e = static_cast<unsigned>(std::bit_width(v)) - 1;
        const unsigned shift = e - kSubBits;
        const std::size_t i =
            (static_cast<std::size_t>(shift + 1) << kSubBits) +
            ((v >> shift) & ((1u << kSubBits) - 1));
        return std::min(i, kBuckets - 1);
    }

    /** Lower edge of bucket @p i (inverse of index()). */
    static std::uint64_t
    low(std::size_t i)
    {
        if (i < (2u << kSubBits))
            return i;
        const unsigned shift = static_cast<unsigned>(i >> kSubBits) - 1;
        const std::uint64_t mant = (i & ((1u << kSubBits) - 1)) |
                                   (1u << kSubBits);
        return mant << shift;
    }

    static constexpr std::size_t kBuckets =
        static_cast<std::size_t>(kOctaves + 1) << kSubBits;
    std::array<std::uint64_t, kBuckets> counts_{};
    std::uint64_t total_ = 0;
    std::uint64_t max_ = 0;
};

/** Count, sum and histogram of one span kind. */
struct SpanStats
{
    std::uint64_t count = 0;
    std::uint64_t sumNs = 0;
    LogHistogram hist;

    void
    add(std::uint64_t ns)
    {
        count++;
        sumNs += ns;
        hist.add(ns);
    }

    double meanNs() const
    {
        return count ? static_cast<double>(sumNs) /
                           static_cast<double>(count)
                     : 0.0;
    }
};

/** One raw span of the sampled requests (parent is the step span's id,
 *  or -1 for the step span itself). */
struct RawSpan
{
    std::uint64_t request;
    std::int64_t id;
    std::int64_t parent;
    int kind;
    std::uint64_t startNs;
    std::uint64_t endNs;
};

/** Per-kind span statistics plus the bounded raw sample. */
class Tracer
{
  public:
    /** @param keepRaw Keep raw spans of every 1024th request and of every
     *         training-round request, up to kRawCap spans. */
    explicit Tracer(bool keepRaw) : keepRaw_(keepRaw) {}

    SpanStats &operator[](int kind) { return stats_[kind]; }
    const SpanStats &operator[](int kind) const { return stats_[kind]; }

    /** Whether request @p req's spans go to the raw sample. */
    bool
    sampled(std::uint64_t req, bool trainRound) const
    {
        return keepRaw_ && raw_.size() < kRawCap &&
               (trainRound || req % 1024 == 0);
    }

    void
    keep(std::uint64_t req, std::int64_t parent, int kind,
         std::uint64_t start, std::uint64_t end)
    {
        const auto id = static_cast<std::int64_t>(raw_.size());
        raw_.push_back({req, id, parent, kind, start, end});
    }

    std::int64_t nextRawId() const
    {
        return static_cast<std::int64_t>(raw_.size());
    }

    /** Write the raw sample as one JSON object per line, with times
     *  relative to @p originNs. */
    void
    writeRaw(std::ostream &os, std::uint64_t originNs) const
    {
        for (const RawSpan &s : raw_) {
            os << "{\"request\": " << s.request << ", \"span\": " << s.id
               << ", \"parent\": ";
            if (s.parent < 0)
                os << "null";
            else
                os << s.parent;
            os << ", \"name\": \"" << spanName(s.kind)
               << "\", \"start_ns\": " << (s.startNs - originNs)
               << ", \"end_ns\": " << (s.endNs - originNs) << "}\n";
        }
    }

  private:
    static constexpr std::size_t kRawCap = 1u << 18;

    std::array<SpanStats, kSpanKinds> stats_{};
    bool keepRaw_;
    std::vector<RawSpan> raw_;
};

} // namespace sibyl::bench
