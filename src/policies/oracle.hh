/**
 * @file
 * Oracle policy [113] — complete future knowledge.
 *
 * The upper bound every figure compares against: with the full trace in
 * hand, the oracle (1) places a request's pages in fast storage exactly
 * when they will be reused soon, and (2) selects eviction victims by
 * Belady's rule — the resident page whose next use is farthest in the
 * future.
 */

#pragma once

#include <queue>
#include <unordered_map>
#include <vector>

#include "policies/policy.hh"

namespace sibyl::policies
{

/** Tunables of the oracle. */
struct OracleConfig
{
    /**
     * Hard cap on how far in the future a reuse may be to still justify
     * caching, in requests. 0 derives the cap from the fast-device
     * capacity (capacityPages x lookaheadPerPage) — beyond that horizon
     * the page would be evicted before its reuse anyway.
     */
    std::size_t lookaheadRequests = 0;

    /** Window derivation factor when lookaheadRequests == 0. */
    double lookaheadPerPage = 1.0;

    /**
     * Use per-page Belady (farthest-next-use) victim selection instead
     * of the system's LRU. Off by default: per-page Belady fragments
     * request extents (evicting one far-future page from an otherwise
     * hot extent makes every later request on that extent pay the slow
     * device), while LRU keeps co-accessed pages resident together.
     */
    bool beladyVictims = false;
};

/** The Oracle policy. */
class OraclePolicy : public PlacementPolicy
{
  public:
    explicit OraclePolicy(const OracleConfig &cfg = OracleConfig());

    std::string name() const override { return "Oracle"; }

    /** Index all future accesses and install the Belady victim picker. */
    void prepare(const trace::Trace &t, hss::HybridSystem &sys) override;

    DeviceId selectPlacement(const hss::HybridSystem &sys,
                             const trace::Request &req,
                             std::size_t reqIndex) override;

    void reset() override;

  private:
    /** First access to @p page strictly after request @p after, or
     *  SIZE_MAX if never accessed again. */
    std::size_t nextUse(PageId page, std::size_t after) const;

    /** Belady victim: resident page on @p dev with the farthest next
     *  use. Uses a lazy max-heap; returns kInvalidPage on miss. */
    PageId pickVictim(DeviceId dev);

    OracleConfig cfg_;
    const hss::HybridSystem *sys_ = nullptr;

    /** page -> sorted request indices that touch it. */
    std::unordered_map<PageId, std::vector<std::uint32_t>> accesses_;

    std::size_t currentIndex_ = 0;
    std::size_t lookahead_ = 0;
    bool absorbDeadWrites_ = false;

    /** Lazy max-heap of (nextUseIndex, page) for fast-resident pages. */
    using HeapEntry = std::pair<std::size_t, PageId>;
    std::priority_queue<HeapEntry> fastHeap_;
};

} // namespace sibyl::policies
