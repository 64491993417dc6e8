/**
 * @file
 * NAND flash geometry description for the page-mapped FTL.
 *
 * The paper's M and L_SSD devices are NAND-flash SSDs whose internal
 * flash translation layer (FTL) produces the garbage-collection stalls
 * and write-amplification effects that make the reward signal noisy
 * (§5: "latency of garbage collection ... write buffer state"). The
 * coarse BlockDevice model charges those effects probabilistically;
 * this module provides the real mechanism: erase blocks, out-of-place
 * writes, over-provisioning, and relocation-based garbage collection.
 */

#pragma once

#include <cstdint>

#include "common/types.hh"

namespace sibyl::ftl
{

/** Index of a physical flash block. */
using BlockIndex = std::uint32_t;

/** Physical page address: block * pagesPerBlock + pageInBlock. */
using PhysPage = std::uint64_t;

/** Sentinel meaning "logical page not mapped to any physical page". */
inline constexpr PhysPage kUnmapped =
    std::numeric_limits<PhysPage>::max();

/** Sentinel for an invalid block index. */
inline constexpr BlockIndex kNoBlock =
    std::numeric_limits<BlockIndex>::max();

/**
 * Physical organization of the flash array behind one FTL instance.
 *
 * Geometry is derived from the exported (user-visible) capacity plus an
 * over-provisioning fraction: the FTL owns more physical pages than it
 * exports, and the spare area is what garbage collection recycles.
 */
struct FlashGeometry
{
    /** Pages per erase block (256 x 4 KiB = 1 MiB blocks by default). */
    std::uint32_t pagesPerBlock = 256;

    /** Total physical erase blocks owned by the FTL. */
    std::uint32_t totalBlocks = 0;

    /** Pages the FTL exports to its user (logical capacity). */
    std::uint64_t exportedPages = 0;

    /** Total physical pages (blocks x pagesPerBlock). */
    std::uint64_t
    totalPages() const
    {
        return static_cast<std::uint64_t>(totalBlocks) * pagesPerBlock;
    }

    /** Physical pages beyond the exported capacity. */
    std::uint64_t
    sparePages() const
    {
        return totalPages() > exportedPages ? totalPages() - exportedPages
                                            : 0;
    }

    /** Spare fraction: sparePages / totalPages. */
    double
    overprovisionFraction() const
    {
        return totalPages() == 0
            ? 0.0
            : static_cast<double>(sparePages()) /
                  static_cast<double>(totalPages());
    }

    /** True if the geometry is internally consistent and usable. */
    bool valid() const;
};

/**
 * Build a geometry exporting @p exportedPages with at least
 * @p overprovision spare fraction (default 7%, typical for consumer
 * TLC). Always leaves at least two spare blocks so GC can make forward
 * progress (one open write block plus one free block to relocate into).
 *
 * @param exportedPages User-visible capacity in pages (> 0).
 * @param overprovision Requested spare fraction in [0, 0.5].
 * @param pagesPerBlock Pages per erase block (>= 2).
 * @throws std::invalid_argument naming the field when exportedPages is 0
 *         or pagesPerBlock is below 2.
 */
FlashGeometry makeGeometry(std::uint64_t exportedPages,
                           double overprovision = 0.07,
                           std::uint32_t pagesPerBlock = 256);

} // namespace sibyl::ftl
