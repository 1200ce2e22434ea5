// Execution-aware memory protection unit (EA-MPU).
//
// Embedded profiles have no MMU; access control is a small table of
// physical regions. Two features make this the substrate for the
// embedded-TEE designs the paper surveys:
//
//  * execution awareness (TrustLite): a region may carry a *code gate* —
//    it is only accessible while the program counter lies inside an
//    associated code region. This generalizes SMART's "the attestation
//    key is readable only while PC is inside the ROM attestation routine".
//  * config locking (TrustLite's Secure Loader): after lock(), region
//    programming is rejected until hardware reset, so a compromised OS
//    cannot re-program Trustlet isolation.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/types.h"

namespace hwsec::sim {

struct MpuRegion {
  std::string name;
  PhysAddr start = 0;
  PhysAddr end = 0;  ///< exclusive.
  bool readable = true;
  bool writable = true;
  bool executable = true;
  /// If set, the region is accessible (per the bits above) only while the
  /// PC is inside [code_gate_start, code_gate_end); otherwise every access
  /// faults. Instruction fetches *into* the region are governed by
  /// `executable` plus, when gated, entry_points (below).
  std::optional<PhysAddr> code_gate_start;
  std::optional<PhysAddr> code_gate_end;
  /// Legal entry addresses when the region itself is gated executable code
  /// (SMART requires attestation code be entered at its first instruction;
  /// mid-function entry would skip the key-erasure prologue).
  std::vector<PhysAddr> entry_points;

  bool contains(PhysAddr addr) const { return addr >= start && addr < end; }
  bool gate_allows(PhysAddr pc) const {
    if (!code_gate_start.has_value()) {
      return true;
    }
    return pc >= *code_gate_start && pc < *code_gate_end;
  }
};

class Mpu {
 public:
  /// Adds a region. Throws SimError(kConfigError) if the MPU is locked,
  /// or on an empty, half-gated or overlapping region (overlap is rejected
  /// because precedence rules are exactly the kind of subtle hardware
  /// behaviour this model does not want to hide bugs in).
  std::size_t add_region(MpuRegion region);

  /// Removes all regions. Throws SimError(kConfigError) if locked.
  void clear();

  /// Removes the region named `name` (Sancus-style dynamic module
  /// teardown). Throws SimError(kConfigError) if locked; returns whether a
  /// region was removed.
  bool remove_region(const std::string& name);

  /// Locks the configuration until reset().
  void lock() { locked_ = true; }
  bool locked() const { return locked_; }

  /// Hardware reset: unlocks and clears.
  void reset();

  /// Checks a data access at `addr` of `type` issued from code at `pc`.
  /// Addresses not covered by any region fall through to the default
  /// policy (allow, like a flat microcontroller memory map).
  Fault check(PhysAddr addr, AccessType type, PhysAddr pc) const;

  /// Checks an instruction fetch at `addr`, with `from_pc` the address of
  /// the jumping/falling-through instruction (for entry-point checks;
  /// pass addr itself on reset vectors).
  Fault check_fetch(PhysAddr addr, PhysAddr from_pc) const;

  const std::vector<MpuRegion>& regions() const { return regions_; }

 private:
  const MpuRegion* region_of(PhysAddr addr) const;

  std::vector<MpuRegion> regions_;
  bool locked_ = false;
};

}  // namespace hwsec::sim
