#include "trace/trace.hh"

#include <algorithm>
#include <bit>
#include <unordered_map>

namespace sibyl::trace
{

std::uint64_t
Trace::uniquePages() const
{
    // Sparse two-level bitmap: each 2^15-page chunk (128 MiB of address
    // space) that any request touches gets one 4 KiB block of bits,
    // found through a small chunk -> block map. Dense synthetic ids and
    // sparse MSRC ids (byte offset / 4096) take the same path; memory
    // is one block per touched chunk, at most the address space / 8
    // bytes. A page is counted when its bit goes from 0 to 1.
    constexpr unsigned kChunkShift = 15;
    constexpr std::size_t kWordsPerChunk =
        (std::size_t{1} << kChunkShift) / 64;
    std::unordered_map<PageId, std::size_t> blockOf; // chunk -> first word
    std::vector<std::uint64_t> bits;
    PageId lastChunk = 0;
    std::uint64_t *lastBlock = nullptr;
    std::uint64_t count = 0;

    for (const auto &r : requests_) {
        // A span whose end wraps past 2^64 covers no page (end <= page).
        const PageId end = r.endPage();
        for (PageId p = r.page; p < end;) {
            const PageId chunk = p >> kChunkShift;
            if (!lastBlock || chunk != lastChunk) {
                const auto [it, added] =
                    blockOf.try_emplace(chunk, bits.size());
                if (added)
                    bits.resize(bits.size() + kWordsPerChunk, 0);
                lastChunk = chunk;
                lastBlock = bits.data() + it->second;
            }
            // This chunk's part of the span, one 64-bit word at a time.
            const PageId chunkEnd = (chunk + 1) << kChunkShift;
            const PageId stop =
                chunkEnd != 0 && chunkEnd < end ? chunkEnd : end;
            while (p < stop) {
                const unsigned bit = static_cast<unsigned>(p & 63);
                const PageId n = std::min<PageId>(64 - bit, stop - p);
                const std::uint64_t mask =
                    (n == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1)
                    << bit;
                std::uint64_t &word =
                    lastBlock[(p >> 6) & (kWordsPerChunk - 1)];
                count += static_cast<std::uint64_t>(
                    std::popcount(mask & ~word));
                word |= mask;
                p += n;
            }
        }
    }
    return count;
}

std::uint64_t
Trace::workingSetBytes() const
{
    return uniquePages() * kPageSize;
}

PageId
Trace::addressSpacePages() const
{
    PageId mx = 0;
    for (const auto &r : requests_)
        mx = std::max(mx, r.endPage());
    return mx;
}

void
Trace::sortByTime()
{
    std::stable_sort(requests_.begin(), requests_.end(),
                     [](const Request &a, const Request &b) {
                         return a.timestamp < b.timestamp;
                     });
}

void
Trace::merge(const Trace &other, SimTime offset)
{
    requests_.reserve(requests_.size() + other.size());
    for (const auto &r : other) {
        Request shifted = r;
        shifted.timestamp += offset;
        requests_.push_back(shifted);
    }
    sortByTime();
}

Trace
Trace::prefix(std::size_t n) const
{
    Trace out(name_ + "_prefix");
    n = std::min(n, requests_.size());
    out.reserve(n);
    for (std::size_t i = 0; i < n; i++)
        out.add(requests_[i]);
    return out;
}

void
Trace::compressTime(double factor)
{
    if (factor <= 0.0)
        return;
    for (auto &r : requests_)
        r.timestamp /= factor;
}

} // namespace sibyl::trace
