// Execution-engine semantics: ISA behaviour, prediction-driven transient
// windows, Meltdown-style fault forwarding and the L1TF path — the unit
// contracts the §4.2 attacks are built on.
#include <gtest/gtest.h>

#include <functional>

#include "sim/machine.h"
#include "sim/program.h"

namespace sim = hwsec::sim;

namespace {

class CpuTest : public ::testing::Test {
 protected:
  CpuTest() : machine_(sim::MachineProfile::server(), 11), aspace_(machine_.create_address_space()) {}

  /// Identity-maps `pages` pages at `base` (base must be page-aligned).
  sim::PhysAddr map_identity(sim::VirtAddr base, std::uint32_t pages, sim::Word flags) {
    for (std::uint32_t p = 0; p < pages; ++p) {
      aspace_.map(base + p * sim::kPageSize, base + p * sim::kPageSize, flags);
    }
    // Identity frames must exist in DRAM; reserve them if still unused.
    return base;
  }

  void start(const sim::Program& program, sim::Privilege priv = sim::Privilege::kSupervisor) {
    machine_.cpu(0).load_program(program);
    machine_.cpu(0).switch_context(sim::kDomainNormal, priv, aspace_.root(), 1);
    machine_.cpu(0).set_pc(program.base);
  }

  sim::Machine machine_;
  sim::AddressSpace aspace_;
};

constexpr sim::VirtAddr kCode = 0x10000;
constexpr sim::Word kCodeFlags = sim::pte::kUser | sim::pte::kExecutable | sim::pte::kWritable;
constexpr sim::Word kDataFlags = sim::pte::kUser | sim::pte::kWritable;

TEST_F(CpuTest, AluAndBranchSemantics) {
  map_identity(kCode, 1, kCodeFlags);
  sim::ProgramBuilder b(kCode);
  b.li(sim::R1, 0)
      .li(sim::R2, 0)
      .label("loop")
      .addi(sim::R1, sim::R1, 3)
      .addi(sim::R2, sim::R2, 1)
      .li(sim::R3, 10)
      .br(sim::BranchCond::kLtu, sim::R2, sim::R3, "loop")
      .shli(sim::R4, sim::R1, 2)
      .xori(sim::R5, sim::R4, 0xFF)
      .halt();
  start(b.build());
  const auto result = machine_.cpu(0).run();
  EXPECT_TRUE(result.halted);
  EXPECT_EQ(machine_.cpu(0).reg(sim::R1), 30u);
  EXPECT_EQ(machine_.cpu(0).reg(sim::R4), 120u);
  EXPECT_EQ(machine_.cpu(0).reg(sim::R5), 120u ^ 0xFFu);
}

TEST_F(CpuTest, LoadStoreRoundTripAndByteOps) {
  map_identity(kCode, 1, kCodeFlags);
  const sim::PhysAddr data = machine_.alloc_frame();
  aspace_.map(0x20000, data, kDataFlags);
  sim::ProgramBuilder b(kCode);
  b.li(sim::R1, 0x20000)
      .li(sim::R2, 0xDEADBEEF)
      .sw(sim::R1, 0, sim::R2)
      .lw(sim::R3, sim::R1)
      .lb(sim::R4, sim::R1, 3)  // highest byte, little-endian.
      .li(sim::R5, 0x42)
      .sb(sim::R1, 5, sim::R5)
      .lb(sim::R6, sim::R1, 5)
      .halt();
  start(b.build());
  machine_.cpu(0).run();
  EXPECT_EQ(machine_.cpu(0).reg(sim::R3), 0xDEADBEEFu);
  EXPECT_EQ(machine_.cpu(0).reg(sim::R4), 0xDEu);
  EXPECT_EQ(machine_.cpu(0).reg(sim::R6), 0x42u);
  EXPECT_EQ(machine_.memory().read32(data), 0xDEADBEEFu);
}

TEST_F(CpuTest, MisalignedWordLoadFaults) {
  map_identity(kCode, 1, kCodeFlags);
  sim::ProgramBuilder b(kCode);
  b.li(sim::R1, 0x20001).lw(sim::R2, sim::R1).halt();
  start(b.build());
  const auto result = machine_.cpu(0).run();
  EXPECT_EQ(result.stop_fault, sim::Fault::kAlignment);
}

TEST_F(CpuTest, CallRetAndLinkRegister) {
  map_identity(kCode, 1, kCodeFlags);
  sim::ProgramBuilder b(kCode);
  b.call("fn").li(sim::R2, 7).halt().label("fn").li(sim::R1, 5).ret();
  start(b.build());
  machine_.cpu(0).run();
  EXPECT_EQ(machine_.cpu(0).reg(sim::R1), 5u);
  EXPECT_EQ(machine_.cpu(0).reg(sim::R2), 7u);
}

TEST_F(CpuTest, RdcycleIsMonotonic) {
  map_identity(kCode, 1, kCodeFlags);
  sim::ProgramBuilder b(kCode);
  b.rdcycle(sim::R1).nop().nop().rdcycle(sim::R2).halt();
  start(b.build());
  machine_.cpu(0).run();
  EXPECT_GT(machine_.cpu(0).reg(sim::R2), machine_.cpu(0).reg(sim::R1));
}

TEST_F(CpuTest, MispredictedBranchExecutesTransiently) {
  map_identity(kCode, 1, kCodeFlags);
  const sim::PhysAddr probe = machine_.alloc_frame();
  aspace_.map(0x30000, probe, kDataFlags);

  // Branch is ALWAYS taken (skipping the probe load); the PHT starts at
  // weakly-not-taken, so the first execution mispredicts and the
  // fall-through runs transiently, heating the probe line.
  sim::ProgramBuilder b(kCode);
  b.li(sim::R1, 1)
      .li(sim::R2, 0x30000)
      .br(sim::BranchCond::kNe, sim::R1, sim::R0, "skip")
      .lw(sim::R3, sim::R2)  // transient only.
      .label("skip")
      .halt();
  start(b.build());
  machine_.caches().flush_all();
  machine_.cpu(0).run();

  EXPECT_GT(machine_.cpu(0).stats().branch_mispredicts, 0u);
  EXPECT_GT(machine_.cpu(0).stats().transient_executed, 0u);
  EXPECT_TRUE(machine_.caches().in_l1d(0, probe))
      << "the transient load's cache fill must persist (the Spectre channel)";
  EXPECT_EQ(machine_.cpu(0).reg(sim::R3), 0u)
      << "architectural state must be squashed";
}

TEST_F(CpuTest, FenceStopsTransientWindow) {
  map_identity(kCode, 1, kCodeFlags);
  const sim::PhysAddr probe = machine_.alloc_frame();
  aspace_.map(0x30000, probe, kDataFlags);
  sim::ProgramBuilder b(kCode);
  b.li(sim::R1, 1)
      .li(sim::R2, 0x30000)
      .br(sim::BranchCond::kNe, sim::R1, sim::R0, "skip")
      .fence()
      .lw(sim::R3, sim::R2)
      .label("skip")
      .halt();
  start(b.build());
  machine_.caches().flush_all();
  machine_.cpu(0).run();
  EXPECT_FALSE(machine_.caches().in_l1d(0, probe))
      << "a fence on the mispredicted path must stop the transient loads";
}

TEST_F(CpuTest, SpeculationWindowBoundsTransientExecution) {
  sim::MachineProfile profile = sim::MachineProfile::server();
  profile.cpu.speculation_window = 8;
  sim::Machine machine(profile, 14);
  auto aspace = machine.create_address_space();
  aspace.map(kCode, kCode, kCodeFlags);
  const sim::PhysAddr early = machine.alloc_frame();
  const sim::PhysAddr late = machine.alloc_frame();
  aspace.map(0x30000, early, kDataFlags);
  aspace.map(0x31000, late, kDataFlags);

  // Mispredicted fall-through: a load within the window and one beyond it
  // (window = 8 transient instructions; the second load is number 10).
  sim::ProgramBuilder b(kCode);
  b.li(sim::R1, 1)
      .li(sim::R2, 0x30000)
      .li(sim::R3, 0x31000)
      .br(sim::BranchCond::kNe, sim::R1, sim::R0, "skip")
      .lw(sim::R4, sim::R2)  // transient #1: inside the window.
      .nop().nop().nop().nop().nop().nop().nop().nop()  // #2..#9.
      .lw(sim::R5, sim::R3)  // transient #10: beyond the window.
      .label("skip")
      .halt();
  machine.cpu(0).load_program(b.build());
  machine.cpu(0).switch_context(sim::kDomainNormal, sim::Privilege::kSupervisor,
                                aspace.root(), 1);
  machine.caches().flush_all();
  machine.cpu(0).run_from(kCode);
  EXPECT_TRUE(machine.caches().in_l1d(0, early)) << "inside the window: executed";
  EXPECT_FALSE(machine.caches().in_l1d(0, late)) << "beyond the window: squashed";
}

TEST_F(CpuTest, InOrderCoreHasNoTransientWindow) {
  sim::MachineProfile profile = sim::MachineProfile::server();
  profile.cpu.speculative_execution = false;
  sim::Machine machine(profile, 12);
  auto aspace = machine.create_address_space();
  for (std::uint32_t p = 0; p < 1; ++p) {
    aspace.map(kCode, kCode, kCodeFlags);
  }
  const sim::PhysAddr probe = machine.alloc_frame();
  aspace.map(0x30000, probe, kDataFlags);
  sim::ProgramBuilder b(kCode);
  b.li(sim::R1, 1)
      .li(sim::R2, 0x30000)
      .br(sim::BranchCond::kNe, sim::R1, sim::R0, "skip")
      .lw(sim::R3, sim::R2)
      .label("skip")
      .halt();
  machine.cpu(0).load_program(b.build());
  machine.cpu(0).switch_context(sim::kDomainNormal, sim::Privilege::kSupervisor, aspace.root(), 1);
  machine.caches().flush_all();
  machine.cpu(0).run_from(kCode);
  EXPECT_EQ(machine.cpu(0).stats().transient_executed, 0u);
  EXPECT_FALSE(machine.caches().in_l1d(0, probe));
}

TEST_F(CpuTest, MeltdownForwardingHeatsProbeBeforeFault) {
  map_identity(kCode, 1, kCodeFlags);
  // Kernel page: present, NOT user-accessible, with a known byte.
  const sim::PhysAddr kernel = machine_.alloc_frame();
  aspace_.map(0x40000, kernel, sim::pte::kWritable);
  machine_.memory().write8(kernel, 0x5C);
  // Probe array: user page.
  const sim::PhysAddr probe = machine_.alloc_frames(8);  // covers 256*64 bytes... 4 pages needed
  for (std::uint32_t p = 0; p < 4; ++p) {
    aspace_.map(0x50000 + p * sim::kPageSize, probe + p * sim::kPageSize, kDataFlags);
  }

  sim::ProgramBuilder b(kCode);
  b.li(sim::R1, 0x40000)
      .li(sim::R2, 0x50000)
      .lb(sim::R3, sim::R1)      // user reads kernel: faults.
      .shli(sim::R3, sim::R3, 6)
      .add(sim::R3, sim::R2, sim::R3)
      .lb(sim::R4, sim::R3)
      .halt();
  start(b.build(), sim::Privilege::kUser);
  machine_.caches().flush_all();
  const auto result = machine_.cpu(0).run();

  EXPECT_EQ(result.stop_fault, sim::Fault::kProtection) << "the fault must still be raised";
  EXPECT_TRUE(machine_.caches().in_l1d(0, probe + 0x5Cu * 64))
      << "the dependent transient load must have heated probe[secret]";
}

TEST_F(CpuTest, MitigatedCoreForwardsNothing) {
  sim::MachineProfile profile = sim::MachineProfile::server();
  profile.cpu.meltdown_fault_forwarding = false;
  sim::Machine machine(profile, 13);
  auto aspace = machine.create_address_space();
  aspace.map(kCode, kCode, kCodeFlags);
  const sim::PhysAddr kernel = machine.alloc_frame();
  aspace.map(0x40000, kernel, sim::pte::kWritable);
  machine.memory().write8(kernel, 0x5C);
  const sim::PhysAddr probe = machine.alloc_frames(4);
  for (std::uint32_t p = 0; p < 4; ++p) {
    aspace.map(0x50000 + p * sim::kPageSize, probe + p * sim::kPageSize, kDataFlags);
  }
  sim::ProgramBuilder b(kCode);
  b.li(sim::R1, 0x40000)
      .li(sim::R2, 0x50000)
      .lb(sim::R3, sim::R1)
      .shli(sim::R3, sim::R3, 6)
      .add(sim::R3, sim::R2, sim::R3)
      .lb(sim::R4, sim::R3)
      .halt();
  machine.cpu(0).load_program(b.build());
  machine.cpu(0).switch_context(sim::kDomainNormal, sim::Privilege::kUser, aspace.root(), 1);
  machine.caches().flush_all();
  machine.cpu(0).run_from(kCode);
  EXPECT_FALSE(machine.caches().in_l1d(0, probe + 0x5Cu * 64));
}

TEST_F(CpuTest, L1tfForwardsOnlyL1ResidentLines) {
  map_identity(kCode, 1, kCodeFlags);
  const sim::PhysAddr secret_frame = machine_.alloc_frame();
  machine_.memory().write8(secret_frame, 0x7B);
  const sim::PhysAddr probe = machine_.alloc_frames(4);
  for (std::uint32_t p = 0; p < 4; ++p) {
    aspace_.map(0x50000 + p * sim::kPageSize, probe + p * sim::kPageSize, kDataFlags);
  }
  // Not-present mapping whose stale frame bits point at the secret.
  aspace_.map(0x60000, secret_frame, kDataFlags);
  aspace_.clear_present(0x60000);

  sim::ProgramBuilder b(kCode);
  b.li(sim::R1, 0x60000)
      .li(sim::R2, 0x50000)
      .lb(sim::R3, sim::R1)
      .shli(sim::R3, sim::R3, 6)
      .add(sim::R3, sim::R2, sim::R3)
      .lb(sim::R4, sim::R3)
      .halt();
  const auto program = b.build();

  // Cold L1: terminal fault forwards nothing.
  start(program, sim::Privilege::kUser);
  machine_.caches().flush_all();
  machine_.cpu(0).run();
  EXPECT_FALSE(machine_.caches().in_l1d(0, probe + 0x7Bu * 64));

  // Hot L1: the same access now leaks the line's content.
  machine_.touch(0, 42, secret_frame);  // someone (an enclave) loads it.
  machine_.cpu(0).mmu().tlb().flush();
  machine_.cpu(0).set_pc(program.base);
  machine_.cpu(0).run();
  EXPECT_TRUE(machine_.caches().in_l1d(0, probe + 0x7Bu * 64))
      << "L1-resident data must be reachable through the terminal fault";
}

TEST_F(CpuTest, FaultHandlerSkipAndRedirect) {
  map_identity(kCode, 1, kCodeFlags);
  sim::ProgramBuilder b(kCode);
  b.li(sim::R1, 0x40000)  // unmapped.
      .lw(sim::R2, sim::R1)
      .li(sim::R3, 1)
      .halt();
  start(b.build());
  int faults = 0;
  machine_.cpu(0).set_fault_handler([&faults](sim::Cpu&, const sim::FaultInfo& info) {
    ++faults;
    EXPECT_EQ(info.fault, sim::Fault::kPageNotPresent);
    return sim::FaultAction::kSkip;
  });
  const auto result = machine_.cpu(0).run();
  EXPECT_TRUE(result.halted);
  EXPECT_EQ(faults, 1);
  EXPECT_EQ(machine_.cpu(0).reg(sim::R3), 1u) << "execution continues after kSkip";
}

// ---- pinned engine outcomes ------------------------------------------------
// The micro-op core is the only engine that commits instructions. Each
// scenario below pins its complete outcome (run result, registers, pc,
// cycle count, every stat counter, hook traces, fault log, L1D counters)
// as recorded from the per-step switch interpreter that the core replaced
// and matched bit for bit. A semantic change fails here naming the field
// that moved; the conformance fuzzer separately diffs the core against the
// reference oracle.

struct Observed {
  sim::RunResult run;
  std::vector<sim::Word> regs;
  sim::VirtAddr pc = 0;
  sim::Cycle cycles = 0;
  sim::CpuStats stats;
  std::vector<sim::Word> leaks;
  std::vector<std::pair<sim::VirtAddr, sim::VirtAddr>> edges;
  std::vector<std::pair<sim::Fault, sim::VirtAddr>> faults;
  std::uint64_t l1d_hits = 0;
  std::uint64_t l1d_misses = 0;
};

void expect_observed(const Observed& actual, const Observed& expected) {
  EXPECT_EQ(actual.run.halted, expected.run.halted);
  EXPECT_EQ(actual.run.executed, expected.run.executed);
  EXPECT_EQ(actual.run.stop_fault, expected.run.stop_fault);
  EXPECT_EQ(actual.regs, expected.regs);
  EXPECT_EQ(actual.pc, expected.pc);
  EXPECT_EQ(actual.cycles, expected.cycles);
  EXPECT_EQ(actual.stats.retired, expected.stats.retired);
  EXPECT_EQ(actual.stats.transient_executed, expected.stats.transient_executed);
  EXPECT_EQ(actual.stats.branch_mispredicts, expected.stats.branch_mispredicts);
  EXPECT_EQ(actual.stats.indirect_mispredicts, expected.stats.indirect_mispredicts);
  EXPECT_EQ(actual.stats.return_mispredicts, expected.stats.return_mispredicts);
  EXPECT_EQ(actual.stats.faults_raised, expected.stats.faults_raised);
  EXPECT_EQ(actual.stats.faults_suppressed, expected.stats.faults_suppressed);
  EXPECT_EQ(actual.stats.loads, expected.stats.loads);
  EXPECT_EQ(actual.stats.stores, expected.stats.stores);
  EXPECT_EQ(actual.stats.l1_hits, expected.stats.l1_hits);
  EXPECT_EQ(actual.stats.llc_hits, expected.stats.llc_hits);
  EXPECT_EQ(actual.stats.dram_accesses, expected.stats.dram_accesses);
  EXPECT_EQ(actual.leaks, expected.leaks);
  EXPECT_EQ(actual.edges, expected.edges);
  EXPECT_EQ(actual.faults, expected.faults);
  EXPECT_EQ(actual.l1d_hits, expected.l1d_hits);
  EXPECT_EQ(actual.l1d_misses, expected.l1d_misses);
}

using Scenario = std::function<void(sim::Machine&, sim::AddressSpace&, Observed&)>;

/// Builds a fresh machine, hands it to `scenario` for setup (mapping,
/// program, hooks), runs from `entry`, and captures the complete outcome.
/// `hooked` additionally arms a leak hook and a control-flow hook.
Observed observe(const sim::MachineProfile& profile, bool hooked, sim::VirtAddr entry,
                 const Scenario& scenario) {
  sim::Machine machine(profile, 77);
  sim::AddressSpace aspace = machine.create_address_space();
  Observed out;
  if (hooked) {
    machine.cpu(0).set_leak_hook([&out](sim::Word v) { out.leaks.push_back(v); });
    machine.cpu(0).set_control_flow_hook([&out](sim::VirtAddr from, sim::VirtAddr to) {
      out.edges.emplace_back(from, to);
    });
  }
  scenario(machine, aspace, out);
  machine.caches().flush_all();
  out.run = machine.cpu(0).run_from(entry);
  for (std::uint32_t r = 0; r < sim::kNumRegs; ++r) {
    out.regs.push_back(machine.cpu(0).reg(static_cast<sim::Reg>(r)));
  }
  out.pc = machine.cpu(0).pc();
  out.cycles = machine.cpu(0).cycles();
  out.stats = machine.cpu(0).stats();
  if (machine.caches().config().has_l1) {
    out.l1d_hits = machine.caches().l1d(0).stats().hits;
    out.l1d_misses = machine.caches().l1d(0).stats().misses;
  }
  return out;
}

/// Runs `scenario` hooked and unhooked. Hooks only observe, so both runs
/// must reproduce `expected`, the unhooked one with empty hook traces. On
/// a core without an MPU the two runs take the two specializations of the
/// micro-op core.
void expect_pinned(const sim::MachineProfile& profile, sim::VirtAddr entry,
                   const Scenario& scenario, const Observed& expected) {
  SCOPED_TRACE(profile.name);
  {
    SCOPED_TRACE("hooked");
    expect_observed(observe(profile, true, entry, scenario), expected);
  }
  Observed unhooked = expected;
  unhooked.leaks.clear();
  unhooked.edges.clear();
  SCOPED_TRACE("unhooked");
  expect_observed(observe(profile, false, entry, scenario), unhooked);
}

/// Exercises every opcode (and both branch outcomes, plus a shift amount
/// beyond 31 whose masking the decoder pre-applies).
sim::Program full_opcode_program() {
  sim::ProgramBuilder b(kCode);
  b.nop()
      .li(sim::R1, 0x20000)
      .li(sim::R2, 0xDEADBEEF)
      .sw(sim::R1, 0, sim::R2)
      .lw(sim::R3, sim::R1)
      .lb(sim::R4, sim::R1, 2)
      .li(sim::R5, 0x42)
      .sb(sim::R1, 5, sim::R5)
      .add(sim::R6, sim::R3, sim::R5)
      .sub(sim::R7, sim::R6, sim::R5)
      .and_(sim::R8, sim::R6, sim::R7)
      .or_(sim::R9, sim::R6, sim::R7)
      .xor_(sim::R10, sim::R6, sim::R7)
      .li(sim::R11, 3)
      .shl(sim::R12, sim::R9, sim::R11)
      .shr(sim::R13, sim::R9, sim::R11)
      .mul(sim::R14, sim::R11, sim::R11)
      .addi(sim::R14, sim::R14, 7)
      .andi(sim::R14, sim::R14, 0xFF)
      .xori(sim::R14, sim::R14, 0x0F)
      .shli(sim::R15, sim::R14, 33)  // decoder pre-masks to 1.
      .shri(sim::R15, sim::R15, 1)
      .br(sim::BranchCond::kEq, sim::R1, sim::R1, "taken")
      .li(sim::R4, 0xBAD)  // skipped.
      .label("taken")
      .br(sim::BranchCond::kNe, sim::R1, sim::R1, "nottaken")
      .li(sim::R5, 0x111)  // falls through.
      .label("nottaken")
      .br(sim::BranchCond::kLt, sim::R0, sim::R11, "lt")
      .label("lt")
      .br(sim::BranchCond::kGe, sim::R11, sim::R0, "ge")
      .label("ge")
      .br(sim::BranchCond::kLtu, sim::R0, sim::R11, "ltu")
      .label("ltu")
      .br(sim::BranchCond::kGeu, sim::R11, sim::R0, "geu")
      .label("geu")
      .jump("jmp")
      .li(sim::R6, 0xBAD)
      .label("jmp")
      .call("fn")
      .li(sim::R7, 0x222)
      .clflush(sim::R1)
      .fence()
      .rdcycle(sim::R8)
      .ecall(0x31)
      .li(sim::R9, 0x333)
      .halt()
      .label("fn")
      .li(sim::R10, 0x444)
      .ret();
  return b.build();
}

// ---- server (paged) scenarios ----------------------------------------------
void enter_address_space(sim::Machine& machine, const sim::AddressSpace& aspace,
                         sim::Privilege priv = sim::Privilege::kSupervisor) {
  machine.cpu(0).switch_context(sim::kDomainNormal, priv, aspace.root(), 1);
}

void full_opcode_set(sim::Machine& machine, sim::AddressSpace& aspace, Observed&) {
  aspace.map(kCode, kCode, kCodeFlags);
  const sim::PhysAddr data = machine.alloc_frame();
  aspace.map(0x20000, data, kDataFlags);
  machine.cpu(0).set_ecall_handler([](sim::Cpu& cpu, sim::Word service) {
    cpu.set_reg(sim::R11, service + cpu.reg(sim::R5));
  });
  machine.cpu(0).load_program(full_opcode_program());
  enter_address_space(machine, aspace);
}

void indirect_jump_call_and_mispredicts(sim::Machine& machine, sim::AddressSpace& aspace,
                                        Observed&) {
  aspace.map(kCode, kCode, kCodeFlags);
  sim::ProgramBuilder b(kCode);
  // jr/callr/ret all mispredict on first sight (cold BTB/RSB), covering
  // the indirect transient windows. The jr/callr targets are fixed
  // addresses, so the blocks are padded to known offsets with nops.
  b.li(sim::R1, 0).label("loop").li(sim::R2, kCode + 0x40).jr(sim::R2);
  for (int i = 0; i < 13; ++i) {
    b.nop();  // land at instruction 16 = kCode + 0x40.
  }
  b.label("land")
      .li(sim::R3, kCode + 0x60)
      .callr(sim::R3)
      .addi(sim::R1, sim::R1, 1)
      .li(sim::R4, 3)
      .br(sim::BranchCond::kLtu, sim::R1, sim::R4, "loop")
      .halt();
  b.nop().nop();  // fn at instruction 24 = kCode + 0x60.
  b.label("fn").addi(sim::R5, sim::R5, 1).ret();
  machine.cpu(0).load_program(b.build());
  enter_address_space(machine, aspace);
}

Scenario faulting_loads(sim::FaultAction action) {
  return [action](sim::Machine& machine, sim::AddressSpace& aspace, Observed& out) {
    aspace.map(kCode, kCode, kCodeFlags);
    sim::ProgramBuilder b(kCode);
    b.li(sim::R1, 0x40000)  // unmapped: every load below faults.
        .lw(sim::R2, sim::R1)
        .li(sim::R3, 1)
        .lb(sim::R4, sim::R1)
        .li(sim::R5, 2)
        .halt()
        .label("vector")
        .li(sim::R6, 0xEC)
        .halt();
    const sim::Program program = b.build();
    const sim::VirtAddr vector = program.address_of("vector");
    machine.cpu(0).set_fault_handler(
        [action, vector, &out](sim::Cpu& cpu, const sim::FaultInfo& info) {
          out.faults.emplace_back(info.fault, info.pc);
          if (action == sim::FaultAction::kRedirect) {
            cpu.set_pc(vector);
          }
          return action;
        });
    machine.cpu(0).load_program(program);
    enter_address_space(machine, aspace);
  };
}

void transient_window_and_meltdown(sim::Machine& machine, sim::AddressSpace& aspace,
                                   Observed&) {
  aspace.map(kCode, kCode, kCodeFlags);
  const sim::PhysAddr kernel = machine.alloc_frame();
  aspace.map(0x40000, kernel, sim::pte::kWritable);  // supervisor-only.
  machine.memory().write8(kernel, 0x5C);
  const sim::PhysAddr probe = machine.alloc_frames(4);
  for (std::uint32_t p = 0; p < 4; ++p) {
    aspace.map(0x50000 + p * sim::kPageSize, probe + p * sim::kPageSize, kDataFlags);
  }
  sim::ProgramBuilder b(kCode);
  // A mispredicted branch with transient loads, then a Meltdown
  // forwarding sequence: both transient paths in one scenario.
  b.li(sim::R1, 1)
      .li(sim::R2, 0x50000)
      .br(sim::BranchCond::kNe, sim::R1, sim::R0, "skip")
      .lw(sim::R3, sim::R2)  // transient only.
      .label("skip")
      .li(sim::R1, 0x40000)
      .lb(sim::R3, sim::R1)  // user reads kernel: faults + forwards.
      .shli(sim::R3, sim::R3, 6)
      .add(sim::R3, sim::R2, sim::R3)
      .lb(sim::R4, sim::R3)
      .halt();
  machine.cpu(0).load_program(b.build());
  enter_address_space(machine, aspace, sim::Privilege::kUser);
}

// ---- embedded (EA-MPU) scenarios ------------------------------------------
constexpr sim::PhysAddr kGate = 0x11000;      ///< gated code region [kGate, kGate + 0x100).
constexpr sim::PhysAddr kKey = 0x30000;       ///< key region, readable only from kGate code.
constexpr sim::PhysAddr kUncovered = 0x12000; ///< DRAM no program covers.

void add_entry_gated_code(sim::Machine& machine) {
  machine.mpu().add_region({.name = "attest", .start = kGate, .end = kGate + 0x100,
                            .readable = true, .writable = false, .executable = true,
                            .entry_points = {kGate}});
}

/// Enters the gated region at its entry point, returns, then jumps into
/// its middle: the second entry is vetoed at fetch.
void mpu_entry_point_violation(sim::Machine& machine, sim::AddressSpace&, Observed&) {
  add_entry_gated_code(machine);
  sim::ProgramBuilder main(kCode);
  main.li(sim::R1, 1).call_abs(kGate).li(sim::R2, kGate + 0x10).jr(sim::R2).halt();
  sim::ProgramBuilder gate(kGate);
  gate.li(sim::R3, 7).nop().nop().nop().li(sim::R4, 9).ret();
  machine.cpu(0).load_program(main.build());
  machine.cpu(0).load_program(gate.build());
}

/// The key reads inside the code gate; outside it every access is a
/// security violation, and inside it the read-only bit still holds.
void code_gated_read(sim::Machine& machine, sim::AddressSpace&, Observed& out) {
  machine.mpu().add_region({.name = "key", .start = kKey, .end = kKey + 0x100,
                            .readable = true, .writable = false, .executable = false,
                            .code_gate_start = kGate, .code_gate_end = kGate + 0x100});
  machine.memory().write32(kKey, 0x5EC2E7u);
  machine.cpu(0).set_fault_handler([&out](sim::Cpu&, const sim::FaultInfo& info) {
    out.faults.emplace_back(info.fault, info.pc);
    return sim::FaultAction::kSkip;
  });
  sim::ProgramBuilder main(kCode);
  main.li(sim::R1, kKey)
      .call_abs(kGate)
      .lw(sim::R4, sim::R1)  // outside the gate: denied.
      .sw(sim::R1, 0, sim::R3)
      .li(sim::R5, 1)
      .halt();
  sim::ProgramBuilder gate(kGate);
  gate.lw(sim::R3, sim::R1)  // inside the gate: allowed.
      .sw(sim::R1, 0, sim::R3)  // gate passes, region is read-only.
      .ret();
  machine.cpu(0).load_program(main.build());
  machine.cpu(0).load_program(gate.build());
}

/// Two programs tagged with different ASIDs share a pc range; the ecall
/// handler switches domain, privilege and ASID mid-program, so execution
/// resumes in the other program.
void ecall_switches_context(sim::Machine& machine, sim::AddressSpace&, Observed&) {
  sim::ProgramBuilder first(kCode);
  first.li(sim::R1, 1).ecall(7).li(sim::R3, 0xAAA).halt();
  sim::ProgramBuilder second(kCode);
  second.li(sim::R1, 2).nop().li(sim::R3, 0xBBB).addi(sim::R3, sim::R3, 1).halt();
  machine.cpu(0).load_program(first.build(), 1);
  machine.cpu(0).load_program(second.build(), 2);
  machine.cpu(0).switch_context(sim::kDomainNormal, sim::Privilege::kSupervisor, 0, 1);
  machine.cpu(0).set_ecall_handler([](sim::Cpu& cpu, sim::Word service) {
    cpu.set_reg(sim::R2, service);
    cpu.switch_context(5, sim::Privilege::kUser, 0, 2);
  });
}

/// Gated code jumps to a pc no program covers: the fetch happens, then a
/// bus error. The handler redirects back into the middle of the gated
/// region, which is legal only because the faulting fetch did not become
/// the "previous instruction" of the EA-MPU entry check.
void uncovered_pc_bus_error(sim::Machine& machine, sim::AddressSpace&, Observed& out) {
  add_entry_gated_code(machine);
  sim::ProgramBuilder main(kCode);
  main.call_abs(kGate).halt();
  sim::ProgramBuilder gate(kGate);
  gate.li(sim::R1, kUncovered).jr(sim::R1).li(sim::R6, 0xEC).halt();
  machine.cpu(0).load_program(main.build());
  machine.cpu(0).load_program(gate.build());
  machine.cpu(0).set_fault_handler([&out](sim::Cpu& cpu, const sim::FaultInfo& info) {
    out.faults.emplace_back(info.fault, info.pc);
    cpu.set_pc(kGate + 8);
    return sim::FaultAction::kRedirect;
  });
}

/// A program at a misaligned base disables the flat fetch table, so every
/// pc resolves through the load-order scan; it calls an aligned helper.
void misaligned_base_program(sim::Machine& machine, sim::AddressSpace&, Observed&) {
  sim::ProgramBuilder main(kCode + 2);
  main.li(sim::R1, 0)
      .li(sim::R2, 4)
      .label("loop")
      .call_abs(kGate)
      .addi(sim::R1, sim::R1, 1)
      .br(sim::BranchCond::kLtu, sim::R1, sim::R2, "loop")
      .halt();
  sim::ProgramBuilder helper(kGate);
  helper.addi(sim::R3, sim::R3, 5).ret();
  machine.cpu(0).load_program(main.build());
  machine.cpu(0).load_program(helper.build());
}

/// The same layout on a paged core, where the fetch memo also applies.
void misaligned_base_program_paged(sim::Machine& machine, sim::AddressSpace& aspace,
                                   Observed& out) {
  aspace.map(kCode, kCode, kCodeFlags);
  aspace.map(kGate, kGate, kCodeFlags);
  misaligned_base_program(machine, aspace, out);
  enter_address_space(machine, aspace);
}

// ---- recorded outcomes -----------------------------------------------------
// clang-format off
const Observed kFullOpcodeSet{
    .run = {.halted = true, .executed = 40, .stop_fault = sim::Fault::kNone},
    .regs = {0x0, 0x20000, 0xDEADBEEF, 0xDEADBEEF, 0xAD, 0x111, 0xDEADBF31, 0x222, 0x394, 0x333, 0x444, 0x142, 0xF56DFFF8, 0x1BD5B7FF, 0x1F, 0x10084},
    .pc = 0x1009C,
    .cycles = 953,
    .stats = {.retired = 40, .transient_executed = 48, .branch_mispredicts = 5, .indirect_mispredicts = 0, .return_mispredicts = 0, .faults_raised = 0, .faults_suppressed = 0, .loads = 2, .stores = 2, .l1_hits = 3, .llc_hits = 0, .dram_accesses = 1},
    .leaks = {0x20000, 0xDEADBEEF, 0xDEADBEEF, 0xDEADBEEF, 0xAD, 0x42, 0x42, 0xDEADBF31, 0xDEADBEEF, 0xDEADBE21, 0xDEADBFFF, 0x1DE, 0x3, 0xF56DFFF8, 0x1BD5B7FF, 0x9, 0x10, 0x10, 0x1F, 0x3E, 0x1F, 0x111, 0x444, 0x222, 0x333},
    .edges = {{0x10058, 0x10060}, {0x10060, 0x10064}, {0x10068, 0x1006C}, {0x1006C, 0x10070}, {0x10070, 0x10074}, {0x10074, 0x10078}, {0x10078, 0x10080}, {0x10080, 0x100A0}, {0x100A4, 0x10084}},
    .faults = {},
    .l1d_hits = 4,
    .l1d_misses = 1};

const Observed kIndirectJumpCallAndMispredicts{
    .run = {.halted = true, .executed = 29, .stop_fault = sim::Fault::kNone},
    .regs = {0x0, 0x3, 0x10040, 0x10060, 0x3, 0x3, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x10048},
    .pc = 0x10054,
    .cycles = 587,
    .stats = {.retired = 29, .transient_executed = 11, .branch_mispredicts = 2, .indirect_mispredicts = 0, .return_mispredicts = 0, .faults_raised = 0, .faults_suppressed = 0, .loads = 0, .stores = 0, .l1_hits = 0, .llc_hits = 0, .dram_accesses = 0},
    .leaks = {0x0, 0x10040, 0x10060, 0x1, 0x1, 0x3, 0x10040, 0x10060, 0x2, 0x2, 0x3, 0x10040, 0x10060, 0x3, 0x3, 0x3},
    .edges = {{0x10008, 0x10040}, {0x10044, 0x10060}, {0x10064, 0x10048}, {0x10050, 0x10004}, {0x10008, 0x10040}, {0x10044, 0x10060}, {0x10064, 0x10048}, {0x10050, 0x10004}, {0x10008, 0x10040}, {0x10044, 0x10060}, {0x10064, 0x10048}, {0x10050, 0x10054}},
    .faults = {},
    .l1d_hits = 0,
    .l1d_misses = 0};

const Observed kFaultSkip{
    .run = {.halted = true, .executed = 6, .stop_fault = sim::Fault::kNone},
    .regs = {0x0, 0x40000, 0x0, 0x1, 0x0, 0x2, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0},
    .pc = 0x10014,
    .cycles = 287,
    .stats = {.retired = 6, .transient_executed = 0, .branch_mispredicts = 0, .indirect_mispredicts = 0, .return_mispredicts = 0, .faults_raised = 2, .faults_suppressed = 0, .loads = 0, .stores = 0, .l1_hits = 0, .llc_hits = 0, .dram_accesses = 0},
    .leaks = {0x40000, 0x1, 0x2},
    .edges = {},
    .faults = {{sim::Fault::kPageNotPresent, 0x10004}, {sim::Fault::kPageNotPresent, 0x1000C}},
    .l1d_hits = 0,
    .l1d_misses = 0};

const Observed kFaultRedirect{
    .run = {.halted = true, .executed = 4, .stop_fault = sim::Fault::kNone},
    .regs = {0x0, 0x40000, 0x0, 0x0, 0x0, 0x0, 0xEC, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0},
    .pc = 0x1001C,
    .cycles = 251,
    .stats = {.retired = 4, .transient_executed = 0, .branch_mispredicts = 0, .indirect_mispredicts = 0, .return_mispredicts = 0, .faults_raised = 1, .faults_suppressed = 0, .loads = 0, .stores = 0, .l1_hits = 0, .llc_hits = 0, .dram_accesses = 0},
    .leaks = {0x40000, 0xEC},
    .edges = {},
    .faults = {{sim::Fault::kPageNotPresent, 0x10004}},
    .l1d_hits = 0,
    .l1d_misses = 0};

const Observed kFaultHalt{
    .run = {.halted = false, .executed = 2, .stop_fault = sim::Fault::kPageNotPresent},
    .regs = {0x0, 0x40000, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0},
    .pc = 0x10004,
    .cycles = 240,
    .stats = {.retired = 2, .transient_executed = 0, .branch_mispredicts = 0, .indirect_mispredicts = 0, .return_mispredicts = 0, .faults_raised = 1, .faults_suppressed = 0, .loads = 0, .stores = 0, .l1_hits = 0, .llc_hits = 0, .dram_accesses = 0},
    .leaks = {0x40000},
    .edges = {},
    .faults = {{sim::Fault::kPageNotPresent, 0x10004}},
    .l1d_hits = 0,
    .l1d_misses = 0};

const Observed kTransientWindowAndMeltdown{
    .run = {.halted = false, .executed = 5, .stop_fault = sim::Fault::kProtection},
    .regs = {0x0, 0x40000, 0x50000, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0},
    .pc = 0x10014,
    .cycles = 273,
    .stats = {.retired = 5, .transient_executed = 11, .branch_mispredicts = 1, .indirect_mispredicts = 0, .return_mispredicts = 0, .faults_raised = 1, .faults_suppressed = 1, .loads = 0, .stores = 0, .l1_hits = 0, .llc_hits = 0, .dram_accesses = 0},
    .leaks = {0x1, 0x50000, 0x40000},
    .edges = {{0x10008, 0x10010}},
    .faults = {},
    .l1d_hits = 1,
    .l1d_misses = 2};

const Observed kMpuEntryPointViolation{
    .run = {.halted = false, .executed = 11, .stop_fault = sim::Fault::kSecurityViolation},
    .regs = {0x0, 0x1, 0x11010, 0x7, 0x9, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x10008},
    .pc = 0x11010,
    .cycles = 30,
    .stats = {.retired = 10, .transient_executed = 0, .branch_mispredicts = 0, .indirect_mispredicts = 0, .return_mispredicts = 0, .faults_raised = 1, .faults_suppressed = 0, .loads = 0, .stores = 0, .l1_hits = 0, .llc_hits = 0, .dram_accesses = 0},
    .leaks = {0x1, 0x7, 0x9, 0x11010},
    .edges = {{0x10004, 0x11000}, {0x11014, 0x10008}, {0x1000C, 0x11010}},
    .faults = {},
    .l1d_hits = 0,
    .l1d_misses = 0};

const Observed kCodeGatedRead{
    .run = {.halted = true, .executed = 9, .stop_fault = sim::Fault::kNone},
    .regs = {0x0, 0x30000, 0x0, 0x5EC2E7, 0x0, 0x1, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x10008},
    .pc = 0x10014,
    .cycles = 24,
    .stats = {.retired = 9, .transient_executed = 0, .branch_mispredicts = 0, .indirect_mispredicts = 0, .return_mispredicts = 0, .faults_raised = 3, .faults_suppressed = 0, .loads = 1, .stores = 0, .l1_hits = 0, .llc_hits = 0, .dram_accesses = 1},
    .leaks = {0x30000, 0x5EC2E7, 0x1},
    .edges = {{0x10004, 0x11000}, {0x11008, 0x10008}},
    .faults = {{sim::Fault::kProtection, 0x11004}, {sim::Fault::kSecurityViolation, 0x10008}, {sim::Fault::kSecurityViolation, 0x1000C}},
    .l1d_hits = 0,
    .l1d_misses = 0};

const Observed kEcallSwitchesContext{
    .run = {.halted = true, .executed = 5, .stop_fault = sim::Fault::kNone},
    .regs = {0x0, 0x1, 0x7, 0xBBC, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0},
    .pc = 0x10010,
    .cycles = 33,
    .stats = {.retired = 5, .transient_executed = 0, .branch_mispredicts = 0, .indirect_mispredicts = 0, .return_mispredicts = 0, .faults_raised = 0, .faults_suppressed = 0, .loads = 0, .stores = 0, .l1_hits = 0, .llc_hits = 0, .dram_accesses = 0},
    .leaks = {0x1, 0xBBB, 0xBBC},
    .edges = {},
    .faults = {},
    .l1d_hits = 0,
    .l1d_misses = 0};

const Observed kUncoveredPcBusError{
    .run = {.halted = true, .executed = 6, .stop_fault = sim::Fault::kNone},
    .regs = {0x0, 0x12000, 0x0, 0x0, 0x0, 0x0, 0xEC, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x10004},
    .pc = 0x1100C,
    .cycles = 16,
    .stats = {.retired = 5, .transient_executed = 0, .branch_mispredicts = 0, .indirect_mispredicts = 0, .return_mispredicts = 0, .faults_raised = 1, .faults_suppressed = 0, .loads = 0, .stores = 0, .l1_hits = 0, .llc_hits = 0, .dram_accesses = 0},
    .leaks = {0x12000, 0xEC},
    .edges = {{0x10000, 0x11000}, {0x11004, 0x12000}},
    .faults = {{sim::Fault::kBusError, 0x12000}},
    .l1d_hits = 0,
    .l1d_misses = 0};

const Observed kMisalignedBaseProgram{
    .run = {.halted = true, .executed = 23, .stop_fault = sim::Fault::kNone},
    .regs = {0x0, 0x4, 0x4, 0x14, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x1000E},
    .pc = 0x10016,
    .cycles = 68,
    .stats = {.retired = 23, .transient_executed = 0, .branch_mispredicts = 0, .indirect_mispredicts = 0, .return_mispredicts = 0, .faults_raised = 0, .faults_suppressed = 0, .loads = 0, .stores = 0, .l1_hits = 0, .llc_hits = 0, .dram_accesses = 0},
    .leaks = {0x0, 0x4, 0x5, 0x1, 0xA, 0x2, 0xF, 0x3, 0x14, 0x4},
    .edges = {{0x1000A, 0x11000}, {0x11004, 0x1000E}, {0x10012, 0x1000A}, {0x1000A, 0x11000}, {0x11004, 0x1000E}, {0x10012, 0x1000A}, {0x1000A, 0x11000}, {0x11004, 0x1000E}, {0x10012, 0x1000A}, {0x1000A, 0x11000}, {0x11004, 0x1000E}, {0x10012, 0x10016}},
    .faults = {},
    .l1d_hits = 0,
    .l1d_misses = 0};

const Observed kMisalignedBaseProgramPaged{
    .run = {.halted = true, .executed = 23, .stop_fault = sim::Fault::kNone},
    .regs = {0x0, 0x4, 0x4, 0x14, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x1000E},
    .pc = 0x10016,
    .cycles = 575,
    .stats = {.retired = 23, .transient_executed = 7, .branch_mispredicts = 2, .indirect_mispredicts = 0, .return_mispredicts = 0, .faults_raised = 0, .faults_suppressed = 0, .loads = 0, .stores = 0, .l1_hits = 0, .llc_hits = 0, .dram_accesses = 0},
    .leaks = {0x0, 0x4, 0x5, 0x1, 0xA, 0x2, 0xF, 0x3, 0x14, 0x4},
    .edges = {{0x1000A, 0x11000}, {0x11004, 0x1000E}, {0x10012, 0x1000A}, {0x1000A, 0x11000}, {0x11004, 0x1000E}, {0x10012, 0x1000A}, {0x1000A, 0x11000}, {0x11004, 0x1000E}, {0x10012, 0x1000A}, {0x1000A, 0x11000}, {0x11004, 0x1000E}, {0x10012, 0x10016}},
    .faults = {},
    .l1d_hits = 0,
    .l1d_misses = 0};
// clang-format on

TEST(BackendIdentityTest, FullOpcodeSetMatchesSwitch) {
  expect_pinned(sim::MachineProfile::server(), kCode, full_opcode_set, kFullOpcodeSet);
}

TEST(BackendIdentityTest, IndirectJumpCallAndMispredictsMatchSwitch) {
  expect_pinned(sim::MachineProfile::server(), kCode, indirect_jump_call_and_mispredicts,
                kIndirectJumpCallAndMispredicts);
}

TEST(BackendIdentityTest, FaultSkipRedirectAndHaltMatchSwitch) {
  const auto server = sim::MachineProfile::server();
  expect_pinned(server, kCode, faulting_loads(sim::FaultAction::kSkip), kFaultSkip);
  expect_pinned(server, kCode, faulting_loads(sim::FaultAction::kRedirect), kFaultRedirect);
  expect_pinned(server, kCode, faulting_loads(sim::FaultAction::kHalt), kFaultHalt);
}

TEST(BackendIdentityTest, TransientWindowAndMeltdownForwardingMatchSwitch) {
  expect_pinned(sim::MachineProfile::server(), kCode, transient_window_and_meltdown,
                kTransientWindowAndMeltdown);
}

TEST(BackendIdentityTest, MpuFetchEntryPointViolationMatchesSwitch) {
  expect_pinned(sim::MachineProfile::embedded(), kCode, mpu_entry_point_violation,
                kMpuEntryPointViolation);
}

TEST(BackendIdentityTest, MpuCodeGatedReadMatchesSwitch) {
  expect_pinned(sim::MachineProfile::embedded(), kCode, code_gated_read, kCodeGatedRead);
}

TEST(BackendIdentityTest, EcallSwitchingContextMatchesSwitch) {
  expect_pinned(sim::MachineProfile::embedded(), kCode, ecall_switches_context,
                kEcallSwitchesContext);
}

TEST(BackendIdentityTest, UncoveredPcBusErrorMatchesSwitch) {
  expect_pinned(sim::MachineProfile::embedded(), kCode, uncovered_pc_bus_error,
                kUncoveredPcBusError);
}

TEST(BackendIdentityTest, MisalignedBaseScanPathMatchesSwitch) {
  expect_pinned(sim::MachineProfile::embedded(), kCode + 2, misaligned_base_program,
                kMisalignedBaseProgram);
  expect_pinned(sim::MachineProfile::server(), kCode + 2, misaligned_base_program_paged,
                kMisalignedBaseProgramPaged);
}

TEST_F(CpuTest, EcallInvokesHandlerAndResumesAfter) {
  map_identity(kCode, 1, kCodeFlags);
  sim::ProgramBuilder b(kCode);
  b.li(sim::R1, 5).ecall(0x77).li(sim::R2, 9).halt();
  start(b.build());
  sim::Word seen_service = 0;
  machine_.cpu(0).set_ecall_handler([&seen_service](sim::Cpu& cpu, sim::Word service) {
    seen_service = service;
    cpu.set_reg(sim::R3, cpu.reg(sim::R1) + 1);
  });
  machine_.cpu(0).run();
  EXPECT_EQ(seen_service, 0x77u);
  EXPECT_EQ(machine_.cpu(0).reg(sim::R3), 6u);
  EXPECT_EQ(machine_.cpu(0).reg(sim::R2), 9u);
}

TEST_F(CpuTest, HookArmedByEcallHandlerSeesTheNextInstruction) {
  map_identity(kCode, 1, kCodeFlags);
  sim::ProgramBuilder b(kCode);
  b.ecall(1).li(sim::R1, 5).halt();
  start(b.build());
  std::vector<sim::Word> leaks;
  machine_.cpu(0).set_ecall_handler([&leaks](sim::Cpu& cpu, sim::Word) {
    cpu.set_leak_hook([&leaks](sim::Word v) { leaks.push_back(v); });
  });
  EXPECT_TRUE(machine_.cpu(0).run().halted);
  EXPECT_EQ(leaks, std::vector<sim::Word>{5u}) << "the core must re-select its specialization";
}

}  // namespace
