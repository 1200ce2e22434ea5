// Execution engine of one hart, with the speculative/transient behaviour
// that Section 4.2 of the paper surveys.
//
// The core executes committed instructions in order, but control-flow
// prediction and faulting loads open *transient windows*:
//
//  * mispredicted conditional branches (PHT), indirect branches (BTB) and
//    returns (RSB) execute up to `speculation_window` instructions down
//    the predicted-but-wrong path. Transient instructions use a shadow
//    register file and never write memory, but their *loads fill the
//    caches* — the side channel every Spectre variant encodes secrets in.
//
//  * a load whose translation faults can still forward data transiently:
//      - protection fault (e.g. user access to a supervisor page) with
//        `meltdown_fault_forwarding`: the value at the (successfully
//        translated) physical address is forwarded to the dependent
//        transient instructions before the fault is raised at retirement —
//        the Meltdown behaviour. Mitigated cores forward zero.
//      - terminal fault (present bit clear / reserved bit set) with
//        `l1tf_vulnerable`: if the *stale frame bits* of the PTE point at
//        a line currently in this core's L1D, its (plaintext) value is
//        forwarded — the Foreshadow / L1TF behaviour. L1-miss forwards
//        nothing.
//    When the faulting load itself sits inside a transient window the
//    architectural exception is suppressed entirely (how Meltdown-style
//    attacks avoid crashing).
//
// Embedded profiles construct the core with speculative_execution=false,
// which removes every transient behaviour at the source — matching the
// paper's observation that IoT-class cores "do not incorporate the
// performance enhancements found in high-end CPUs" and are therefore not
// susceptible to microarchitectural attacks.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include <memory>

#include "sim/bus.h"
#include "sim/isa.h"
#include "sim/mmu.h"
#include "sim/mpu.h"
#include "sim/predictor.h"
#include "sim/program.h"
#include "sim/types.h"
#include "sim/uop.h"
#include "sim/watchdog.h"

namespace hwsec::sim {

struct CpuConfig {
  CoreId id = 0;
  bool speculative_execution = true;
  std::uint32_t speculation_window = 64;
  bool meltdown_fault_forwarding = true;  ///< false = mitigated silicon.
  bool l1tf_vulnerable = true;            ///< false = mitigated silicon.
  Cycle mispredict_penalty = 15;
  Cycle alu_latency = 1;
  PredictorConfig predictor{};
  TlbConfig tlb{};
};

struct FaultInfo {
  Fault fault = Fault::kNone;
  VirtAddr pc = 0;
  VirtAddr addr = 0;  ///< faulting data address (0 for fetch faults).
  AccessType type = AccessType::kRead;
};

enum class FaultAction : std::uint8_t {
  kHalt,      ///< stop the run (unhandled fault).
  kSkip,      ///< retire the faulting instruction as a no-op, continue.
  kRedirect,  ///< handler set a new pc (exception vector); continue there.
};

struct CpuStats {
  std::uint64_t retired = 0;
  std::uint64_t transient_executed = 0;
  std::uint64_t branch_mispredicts = 0;
  std::uint64_t indirect_mispredicts = 0;
  std::uint64_t return_mispredicts = 0;
  std::uint64_t faults_raised = 0;
  std::uint64_t faults_suppressed = 0;  ///< faulting loads inside transient windows.
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t l1_hits = 0;
  std::uint64_t llc_hits = 0;
  std::uint64_t dram_accesses = 0;
};

struct RunResult {
  bool halted = false;             ///< reached kHalt (vs. instruction budget).
  std::uint64_t executed = 0;      ///< committed instructions this run.
  Fault stop_fault = Fault::kNone; ///< set when a kHalt FaultAction ended the run.
};

class Cpu {
 public:
  /// `service` is the kEcall immediate; args/returns by convention in
  /// r1..r3. The handler runs host-side (it models OS / monitor / SDK
  /// services) and may switch the CPU's context.
  using EcallHandler = std::function<void(Cpu&, Word service)>;
  using FaultHandler = std::function<FaultAction(Cpu&, const FaultInfo&)>;
  /// Observes every committed result value (for the power-leakage model).
  using LeakHook = std::function<void(Word value)>;
  /// Observes every committed control-flow transfer (source pc, target).
  /// Substrate for control-flow attestation (C-FLAT, the paper's [1]).
  using ControlFlowHook = std::function<void(VirtAddr from, VirtAddr to)>;

  Cpu(CpuConfig config, Bus& bus);

  const CpuConfig& config() const { return config_; }
  CoreId id() const { return config_.id; }

  // -- program management ----------------------------------------------
  /// Makes `program`'s instructions fetchable (fetch permissions are
  /// still enforced by MMU/MPU; this only registers the decoded code).
  /// With `asid` set, the program is visible only while that address
  /// space is active — two processes may then occupy the same virtual
  /// addresses with different code, as real processes do.
  void load_program(const Program& program, std::optional<Asid> asid = std::nullopt);
  void clear_programs();

  /// Installs the shared decoded-program cache consulted by load_program
  /// (nullptr: decode privately per load). The cache must outlive the Cpu;
  /// the machine pool owns one per pool and installs it before taking the
  /// pristine snapshot, so pooled trials never re-decode a program.
  void set_uop_cache(UopCache* cache) { uop_cache_ = cache; }

  // -- architectural state ----------------------------------------------
  Word reg(Reg r) const { return r == kZero ? 0 : regs_[r]; }
  void set_reg(Reg r, Word value) {
    if (r != kZero) {
      dirty_ = true;
      regs_[r] = value;
    }
  }
  VirtAddr pc() const { return pc_; }
  void set_pc(VirtAddr pc) {
    dirty_ = true;
    pc_ = pc;
  }
  Cycle cycles() const { return cycles_; }
  void add_cycles(Cycle c) {
    dirty_ = true;
    cycles_ += c;
  }

  /// Switches security context: domain tag, privilege, address space.
  /// Notifies the branch predictor (flush-on-switch mitigations hook in
  /// there).
  void switch_context(DomainId domain, Privilege priv, PhysAddr page_root, Asid asid);
  DomainId domain() const { return mmu_.domain(); }
  Privilege privilege() const { return mmu_.privilege(); }

  // -- hooks --------------------------------------------------------------
  void set_ecall_handler(EcallHandler h) {
    dirty_ = true;
    ecall_ = std::move(h);
  }
  void set_fault_handler(FaultHandler h) {
    dirty_ = true;
    fault_handler_ = std::move(h);
  }
  void set_leak_hook(LeakHook h) {
    dirty_ = true;
    leak_ = std::move(h);
    has_leak_ = static_cast<bool>(leak_);
  }
  void set_control_flow_hook(ControlFlowHook h) {
    dirty_ = true;
    cf_hook_ = std::move(h);
    has_cf_hook_ = static_cast<bool>(cf_hook_);
  }
  void set_mpu(const Mpu* mpu) {
    dirty_ = true;
    mpu_ = mpu;
  }
  /// Arms (or with nullptr disarms) the per-trial watchdog. While armed,
  /// run() throws SimError(kTimedOut) when the cycle budget is exhausted or
  /// the wall-clock monitor sets the cancel flag. Arming is per-trial
  /// transient state, deliberately *not* part of the snapshot dirtiness:
  /// the machine pool disarms on every lease release, and a restored
  /// watchdog pointer would dangle past its trial anyway.
  void set_watchdog(const TrialWatchdog* watchdog) { watchdog_ = watchdog; }

  // -- execution ------------------------------------------------------------
  /// Runs until kHalt, an unhandled fault, or `max_instructions`
  /// committed instructions.
  RunResult run(std::uint64_t max_instructions = 1'000'000);

  /// Convenience: set pc and run.
  RunResult run_from(VirtAddr entry, std::uint64_t max_instructions = 1'000'000);

  /// Non-const accessors conservatively mark the core dirty: callers can
  /// mutate MMU/predictor state through the reference without the Cpu
  /// seeing it, and the snapshot layer must assume they did.
  Mmu& mmu() {
    dirty_ = true;
    return mmu_;
  }
  const Mmu& mmu() const { return mmu_; }
  BranchPredictor& predictor() {
    dirty_ = true;
    return predictor_;
  }
  Bus& bus() { return *bus_; }

  const CpuStats& stats() const { return stats_; }
  void reset_stats() {
    dirty_ = true;
    stats_ = {};
  }

  // -- snapshot support (Machine::snapshot) ------------------------------
  /// Dirty-since-snapshot flag: Machine::snapshot() calls mark_clean() on
  /// every core before copying it, and Machine::reset_to() skips the
  /// (predictor/TLB/program-table) copy for cores still clean — in
  /// single-core trials that is every core but core 0. Every mutating
  /// member function and non-const accessor sets the flag.
  void mark_clean() { dirty_ = false; }
  bool dirty() const { return dirty_; }

 private:
  /// Why the micro-op core handed control back to run().
  enum class UopExit : std::uint8_t {
    kDone,    ///< run finished (halt, fault stop, or budget exhausted).
    kResync,  ///< a fault or ecall handler ran; re-select the specialization.
  };

  /// The decoded program serving `pc` under the active ASID, or nullptr.
  /// An array index into the flat fetch table when the layout allows one,
  /// otherwise the load-order scan.
  const DecodedProgram* program_at(VirtAddr pc) const {
    if (!fetch_valid_ || fetch_asid_ != mmu_.asid()) {
      rebuild_fetch_table();
    }
    if (!fetch_flat_ok_) {
      return scan_program_at(pc);
    }
    const VirtAddr off = pc - fetch_lo_;  // below-lo pcs wrap to huge offsets.
    if ((off & 3u) != 0 || (off >> 2) >= fetch_slots_.size()) {
      return nullptr;
    }
    const std::uint32_t p = fetch_slots_[off >> 2];
    return p == kNoSlot ? nullptr : programs_[p].decoded.get();
  }
  const DecodedProgram* scan_program_at(VirtAddr pc) const;

  /// Micro-op commit loop (sim/dispatch.cpp), the only engine that commits
  /// instructions. Hooked=false is the branchless fast path, entered only
  /// when no leak hook, control-flow hook, watchdog or MPU is armed;
  /// Hooked=true adds the hook calls, the per-instruction watchdog poll and
  /// the EA-MPU fetch and data checks. Updates `result` in place; `pc_` is
  /// materialized at every point where host code (hooks, handlers, thrown
  /// errors) can observe it.
  template <bool Hooked>
  UopExit run_uops(RunResult& result, std::uint64_t max_instructions);

  /// Throws SimError(kTimedOut) if the armed watchdog tripped.
  void check_watchdog(std::uint64_t executed) const;
  /// Raises `info` through the fault handler; returns true when the run
  /// stops at this fault (no handler, or FaultAction::kHalt).
  bool raise(const FaultInfo& info);
  void note_service(ServiceLevel level);

  /// Runs the transient window starting at `start_pc` with a copy of the
  /// architectural registers (optionally pre-seeding `seed_reg` with the
  /// microarchitecturally forwarded value of a faulting load).
  void run_transient(VirtAddr start_pc, std::optional<Reg> seed_reg, Word seed_value);

  /// Resolves the microarchitecturally forwarded value for a faulting
  /// load, per the Meltdown / L1TF configuration. Returns nullopt when
  /// nothing forwards (mitigated core, or L1 miss under L1TF).
  std::optional<Word> transient_fault_value(const TranslateResult& tr, VirtAddr va,
                                            bool byte_load);

  CpuConfig config_;
  Bus* bus_;
  Mmu mmu_;
  BranchPredictor predictor_;
  const Mpu* mpu_ = nullptr;
  const TrialWatchdog* watchdog_ = nullptr;

  std::array<Word, kNumRegs> regs_{};
  VirtAddr pc_ = 0;
  Cycle cycles_ = 0;
  /// Physical address of the previously fetched instruction, for the
  /// EA-MPU's "which code is executing" gate and entry-point checks.
  PhysAddr prev_fetch_phys_ = 0;

  struct LoadedProgram {
    /// Immutable decoded form, shared across machines via the UopCache.
    /// The transient-window executor serves from decoded->code; the
    /// micro-op core executes decoded->uops.
    std::shared_ptr<const DecodedProgram> decoded;
    std::optional<Asid> asid;
    VirtAddr base = 0;  ///< cached decoded->base (avoids an indirection on reject).
    VirtAddr end = 0;   ///< cached decoded->end.
  };
  std::vector<LoadedProgram> programs_;
  UopCache* uop_cache_ = nullptr;

  /// Fetch memo: replays the side effects of an instruction fetch whose
  /// translation hit the TLB and whose line hit the L1I, without
  /// re-entering the MMU and bus layers. An entry records where the hit
  /// landed plus every removal epoch its validity depends on; epochs are
  /// monotonic (including across snapshot restores), so "all epochs
  /// unchanged and same context word" proves bit-for-bit that the full
  /// path would produce the same latency, stats deltas and LRU/PLRU
  /// touches the replay applies. Armed only when the core has an L1I, the
  /// bus has no firewall checks and the MMU is translating — never on the
  /// bare-mode, cacheless MPU cores, so the EA-MPU sees every fetch.
  struct FetchMemo {
    VirtAddr pc = ~VirtAddr{0};  ///< sentinel: misaligned, never matches.
    PhysAddr phys = 0;
    Cycle latency = 0;  ///< TLB hit latency + L1I hit latency.
    std::uint32_t tlb_index = 0;
    std::uint32_t l1i_set = 0;
    std::uint32_t l1i_way = 0;
    std::uint64_t ctx = 0;  ///< packed asid/domain/priv + bus-check bit.
    std::uint64_t tlb_epoch = 0;
    std::uint64_t l1i_epoch = 0;
    std::uint64_t excl_epoch = 0;
  };
  static constexpr std::uint32_t kFetchMemoSlots = 64;  ///< direct-mapped.
  std::uint64_t fetch_ctx() const {
    return static_cast<std::uint64_t>(mmu_.asid()) << 32 |
           static_cast<std::uint64_t>(mmu_.domain()) << 8 |
           static_cast<std::uint64_t>(mmu_.privilege()) << 1 |
           static_cast<std::uint64_t>(bus_->has_checks());
  }
  std::array<FetchMemo, kFetchMemoSlots> fetch_memo_{};

  /// Flat fetch table: slot (pc - fetch_lo_) >> 2 holds the index of the
  /// program serving that pc (kNoSlot: no program). Built lazily for the
  /// programs visible under the current ASID, making program_at an array
  /// index instead of a range scan. Slots hold indices rather than
  /// pointers so a copied Cpu (machine snapshots) carries a table that is
  /// valid against its own programs_ vector. Invalidated on
  /// load_program/clear_programs; ASID changes (switch_context or direct
  /// MMU writes) are caught by the fetch_asid_ check. Programs
  /// with misaligned bases or a pathologically wide address spread fall
  /// back to the load-order linear scan (fetch_flat_ok_ == false).
  void rebuild_fetch_table() const;
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;
  static constexpr std::uint64_t kMaxFetchSlots = 1u << 20;  ///< 4 MiB pc span.
  mutable std::vector<std::uint32_t> fetch_slots_;
  mutable VirtAddr fetch_lo_ = 0;
  mutable Asid fetch_asid_ = 0;
  mutable bool fetch_valid_ = false;
  mutable bool fetch_flat_ok_ = false;
  EcallHandler ecall_;
  FaultHandler fault_handler_;
  LeakHook leak_;
  ControlFlowHook cf_hook_;
  /// Hoisted null-checks for the per-commit hooks: a plain bool test on the
  /// commit path instead of a std::function engaged-state load per retired
  /// instruction.
  bool has_leak_ = false;
  bool has_cf_hook_ = false;
  /// See mark_clean(); starts true so a restore before any snapshot-side
  /// mark_clean() never skips the copy.
  bool dirty_ = true;
  CpuStats stats_;
};

}  // namespace hwsec::sim
