#include "energy/energy_model.hh"

#include <algorithm>
#include <stdexcept>

namespace sibyl::energy
{

PowerSpec
powerPreset(const std::string &shorthand)
{
    // Approximate vendor envelopes (active R / active W / idle, Watts):
    //  - Intel Optane P4800X: high active draw, PCIe-class idle.
    //  - Intel D3-S4510: mainstream SATA TLC.
    //  - Seagate ST1000DM010: spindle keeps idle power high.
    //  - ADATA SU630: DRAM-less budget TLC.
    if (shorthand == "H")
        return PowerSpec{10.0, 14.0, 5.0};
    if (shorthand == "M")
        return PowerSpec{1.3, 3.2, 1.1};
    if (shorthand == "L")
        return PowerSpec{5.3, 6.0, 3.4};
    if (shorthand == "L_SSD")
        return PowerSpec{1.2, 1.8, 0.55};
    throw std::invalid_argument("power: unknown device shorthand '" +
                                shorthand + "' (want H, M, L or L_SSD)");
}

EnergyBreakdown
computeEnergy(const device::BlockDevice &dev, const PowerSpec &power,
              double makespanUs)
{
    const auto &c = dev.counters();
    EnergyBreakdown e;
    e.readUj = c.readBusyUs * power.readActiveW;
    e.writeUj = c.writeBusyUs * power.writeActiveW;
    const double busy = c.readBusyUs + c.writeBusyUs;
    e.idleUj = std::max(0.0, makespanUs - busy) * power.idleW;
    return e;
}

double
requestEnergyUj(const PowerSpec &power, OpType op, double serviceUs)
{
    const double watts =
        op == OpType::Read ? power.readActiveW : power.writeActiveW;
    return watts * serviceUs;
}

} // namespace sibyl::energy
