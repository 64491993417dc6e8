/**
 * @file
 * Block-I/O request and trace containers.
 *
 * A trace is the unit of workload in this project: a time-ordered list of
 * page-granular read/write requests, as produced by the MSRC trace reader
 * or by the synthetic generators.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace sibyl::trace
{

/** One block-I/O request. */
struct Request
{
    /** Issue time from the workload (microseconds from trace start).
     *  The gap between consecutive timestamps models host compute time. */
    SimTime timestamp = 0.0;

    /** First logical 4 KiB page touched. */
    PageId page = 0;

    /** Number of consecutive pages touched (>= 1). */
    std::uint32_t sizePages = 1;

    /** Read or write. */
    OpType op = OpType::Read;

    /** One past the last page touched. */
    PageId endPage() const { return page + sizePages; }
};

/** A named, time-ordered request stream. */
class Trace
{
  public:
    Trace() = default;
    explicit Trace(std::string name) : name_(std::move(name)) {}

    const std::string &name() const { return name_; }

    void add(const Request &r) { requests_.push_back(r); }
    void reserve(std::size_t n) { requests_.reserve(n); }

    std::size_t size() const { return requests_.size(); }
    bool empty() const { return requests_.empty(); }
    const Request &operator[](std::size_t i) const { return requests_[i]; }
    Request &operator[](std::size_t i) { return requests_[i]; }

    auto begin() const { return requests_.begin(); }
    auto end() const { return requests_.end(); }

    /** Number of distinct pages referenced anywhere in the trace. */
    std::uint64_t uniquePages() const;

    /** Working-set size in bytes (uniquePages * 4 KiB). */
    std::uint64_t workingSetBytes() const;

    /** Largest page id referenced plus one (address-space span). */
    PageId addressSpacePages() const;

    /** Re-sort requests by timestamp (stable). Used after mixing. */
    void sortByTime();

    /** Append all requests of @p other, shifted by @p offset microseconds,
     *  then re-sort. Used by the workload mixer. */
    void merge(const Trace &other, SimTime offset);

    /** Return a copy containing only the first @p n requests. */
    Trace prefix(std::size_t n) const;

    /** Divide every timestamp by @p factor (> 1 shrinks host think
     *  time, making a replay device-bound — used by the closed-loop
     *  throughput benches). */
    void compressTime(double factor);

  private:
    std::string name_;
    std::vector<Request> requests_;
};

} // namespace sibyl::trace
