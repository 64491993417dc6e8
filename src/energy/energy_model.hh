/**
 * @file
 * Storage-device energy model.
 *
 * The paper's §11 discussion proposes extending Sibyl's reward to
 * multi-objective optimization, naming performance + energy as the
 * example. This module supplies the energy side: datasheet-derived
 * power envelopes for the Table 3 devices and an accounting helper
 * that converts device busy/idle time into energy.
 *
 * Power states are the standard three-level storage model: active-read
 * power while servicing reads, active-write power while servicing
 * writes (programs/erases draw more than reads on every technology in
 * Table 3), and idle power otherwise. Energy in microjoules is
 * Watts x microseconds (1 W·µs = 1 µJ).
 */

#pragma once

#include <string>

#include "device/block_device.hh"

namespace sibyl::energy
{

/** Three-state power envelope of a storage device, in Watts. */
struct PowerSpec
{
    double readActiveW = 1.0;  ///< while servicing a read
    double writeActiveW = 1.5; ///< while servicing a write/program
    double idleW = 0.5;        ///< powered but not servicing
};

/**
 * Datasheet-derived power preset for a Table 3 device shorthand
 * ("H", "M", "L", "L_SSD"). Values approximate the vendor active/idle
 * envelopes: Optane P4800X draws the most active power, the HDD's
 * spindle dominates its idle draw, and the DRAM-less SU630 is the
 * most frugal. Throws std::invalid_argument for any other shorthand.
 */
PowerSpec powerPreset(const std::string &shorthand);

/** Energy consumed by one device over a simulation run, in µJ. */
struct EnergyBreakdown
{
    double readUj = 0.0;
    double writeUj = 0.0;
    double idleUj = 0.0;

    double
    totalUj() const
    {
        return readUj + writeUj + idleUj;
    }

    /** Total in millijoules (for human-readable reports). */
    double totalMj() const { return totalUj() / 1e3; }
};

/**
 * Compute the energy a device consumed over a run.
 *
 * @param dev        The device (provides per-op busy-time counters).
 * @param power      Its power envelope.
 * @param makespanUs Run duration; time not spent busy is idle.
 */
EnergyBreakdown computeEnergy(const device::BlockDevice &dev,
                              const PowerSpec &power, double makespanUs);

/**
 * Energy estimate for a single request, in µJ — the per-decision
 * signal the energy-aware reward variant uses.
 */
double requestEnergyUj(const PowerSpec &power, OpType op,
                       double serviceUs);

} // namespace sibyl::energy
