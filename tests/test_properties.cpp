// Property-based sweeps: cache invariants across geometries and policies,
// and a differential test of the CPU's ALU against an independent
// reference evaluator over randomized programs.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <map>
#include <type_traits>

#include "sim/cache.h"
#include "sim/machine.h"
#include "sim/program.h"
#include "sim/rng.h"

namespace sim = hwsec::sim;

namespace {

// ---- cache geometry properties ------------------------------------------

// Printed byte-for-byte into the CTest name (see BranchCase in
// test_program_isa.cpp); `name_tag` spells out what would be padding so the
// names stay what they were first registered as.
struct Geometry {
  std::uint32_t size_bytes;
  std::uint32_t ways;
  std::uint32_t line;
  sim::ReplacementPolicy policy;
  std::array<std::uint8_t, 3> name_tag;
};
static_assert(sizeof(Geometry) == 16 &&
              std::has_unique_object_representations_v<Geometry>);

class CacheGeometryTest : public ::testing::TestWithParam<Geometry> {
 protected:
  sim::Cache make() const {
    const Geometry& g = GetParam();
    return sim::Cache({.name = "sweep", .size_bytes = g.size_bytes, .ways = g.ways,
                       .line_size = g.line, .policy = g.policy, .hit_latency = 4},
                      99);
  }
};

TEST_P(CacheGeometryTest, SecondAccessToSameLineAlwaysHits) {
  sim::Cache cache = make();
  sim::Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    const sim::PhysAddr addr = static_cast<sim::PhysAddr>(rng.below(1 << 24));
    cache.access(addr, 0, sim::AccessType::kRead);
    EXPECT_TRUE(cache.access(addr, 0, sim::AccessType::kRead).hit) << std::hex << addr;
  }
}

TEST_P(CacheGeometryTest, SetOccupancyNeverExceedsWays) {
  sim::Cache cache = make();
  sim::Rng rng(2);
  for (int i = 0; i < 2000; ++i) {
    cache.access(static_cast<sim::PhysAddr>(rng.below(1 << 22)), 3, sim::AccessType::kRead);
  }
  for (sim::PhysAddr probe = 0; probe < (1 << 22); probe += 4096 + 64) {
    ASSERT_LE(cache.occupancy(probe, 3), GetParam().ways);
  }
}

TEST_P(CacheGeometryTest, CongruentFillKeepsExactlyWaysLines) {
  sim::Cache cache = make();
  const Geometry& g = GetParam();
  const std::uint32_t sets = g.size_bytes / (g.ways * g.line);
  const sim::PhysAddr stride = g.line * sets;  // same set, different tags.
  const std::uint32_t n = g.ways + 5;
  for (std::uint32_t i = 0; i < n; ++i) {
    cache.access(i * stride, 0, sim::AccessType::kRead);
  }
  std::uint32_t present = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    present += cache.probe(i * stride) ? 1 : 0;
  }
  EXPECT_EQ(present, g.ways) << "a set holds exactly `ways` of the congruent lines";
}

TEST_P(CacheGeometryTest, FlushAllEmptiesEverything) {
  sim::Cache cache = make();
  sim::Rng rng(3);
  std::vector<sim::PhysAddr> touched;
  for (int i = 0; i < 200; ++i) {
    const sim::PhysAddr addr = static_cast<sim::PhysAddr>(rng.below(1 << 22));
    cache.access(addr, 0, sim::AccessType::kRead);
    touched.push_back(addr);
  }
  cache.flush_all();
  for (const sim::PhysAddr addr : touched) {
    ASSERT_FALSE(cache.probe(addr));
  }
}

TEST_P(CacheGeometryTest, StatsBalance) {
  sim::Cache cache = make();
  sim::Rng rng(4);
  const std::uint64_t accesses = 3000;
  for (std::uint64_t i = 0; i < accesses; ++i) {
    cache.access(static_cast<sim::PhysAddr>(rng.below(1 << 20)), 0, sim::AccessType::kRead);
  }
  EXPECT_EQ(cache.stats().hits + cache.stats().misses, accesses);
  EXPECT_LE(cache.stats().evictions, cache.stats().misses);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometryTest,
    ::testing::Values(
        Geometry{1024, 1, 32, sim::ReplacementPolicy::kLru, {0x8B}},  // direct-mapped
        Geometry{4096, 4, 64, sim::ReplacementPolicy::kLru, {0x8B}},
        Geometry{4096, 4, 64, sim::ReplacementPolicy::kTreePlru, {0xFF}},
        Geometry{4096, 4, 64, sim::ReplacementPolicy::kRandom, {0x56}},
        Geometry{32768, 8, 64, sim::ReplacementPolicy::kLru, {0x56}},
        Geometry{65536, 16, 128, sim::ReplacementPolicy::kTreePlru, {0x7F}},
        Geometry{2048, 32, 64, sim::ReplacementPolicy::kRandom, {0x56}}));  // fully assoc.

// ---- randomized CPU vs. reference interpreter ------------------------------

struct RefState {
  std::array<sim::Word, sim::kNumRegs> regs{};
  sim::Word reg(sim::Reg r) const { return r == sim::kZero ? 0 : regs[r]; }
  void set(sim::Reg r, sim::Word v) {
    if (r != sim::kZero) {
      regs[r] = v;
    }
  }
};

/// Independent straight-line ALU evaluator (no shared code with the CPU).
void ref_eval(const sim::Instruction& i, RefState& s) {
  using O = sim::Opcode;
  switch (i.op) {
    case O::kLoadImm: s.set(i.rd, static_cast<sim::Word>(i.imm)); break;
    case O::kAdd: s.set(i.rd, s.reg(i.rs1) + s.reg(i.rs2)); break;
    case O::kSub: s.set(i.rd, s.reg(i.rs1) - s.reg(i.rs2)); break;
    case O::kAnd: s.set(i.rd, s.reg(i.rs1) & s.reg(i.rs2)); break;
    case O::kOr: s.set(i.rd, s.reg(i.rs1) | s.reg(i.rs2)); break;
    case O::kXor: s.set(i.rd, s.reg(i.rs1) ^ s.reg(i.rs2)); break;
    case O::kShl: s.set(i.rd, s.reg(i.rs1) << (s.reg(i.rs2) & 31)); break;
    case O::kShr: s.set(i.rd, s.reg(i.rs1) >> (s.reg(i.rs2) & 31)); break;
    case O::kMul: s.set(i.rd, s.reg(i.rs1) * s.reg(i.rs2)); break;
    case O::kAddImm: s.set(i.rd, s.reg(i.rs1) + static_cast<sim::Word>(i.imm)); break;
    case O::kAndImm: s.set(i.rd, s.reg(i.rs1) & static_cast<sim::Word>(i.imm)); break;
    case O::kXorImm: s.set(i.rd, s.reg(i.rs1) ^ static_cast<sim::Word>(i.imm)); break;
    case O::kShlImm: s.set(i.rd, s.reg(i.rs1) << (static_cast<sim::Word>(i.imm) & 31)); break;
    case O::kShrImm: s.set(i.rd, s.reg(i.rs1) >> (static_cast<sim::Word>(i.imm) & 31)); break;
    default: break;
  }
}

class RandomAluProgramTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomAluProgramTest, CpuMatchesReferenceInterpreter) {
  sim::Rng rng(GetParam());
  sim::Machine machine(sim::MachineProfile::server(), GetParam());
  machine.cpu(0).mmu().set_bare_mode(true);

  sim::ProgramBuilder b(0x8000);
  RefState ref;
  const std::array<sim::Opcode, 14> pool = {
      sim::Opcode::kLoadImm, sim::Opcode::kAdd, sim::Opcode::kSub, sim::Opcode::kAnd,
      sim::Opcode::kOr, sim::Opcode::kXor, sim::Opcode::kShl, sim::Opcode::kShr,
      sim::Opcode::kMul, sim::Opcode::kAddImm, sim::Opcode::kAndImm, sim::Opcode::kXorImm,
      sim::Opcode::kShlImm, sim::Opcode::kShrImm};
  std::vector<sim::Instruction> generated;
  for (int i = 0; i < 120; ++i) {
    sim::Instruction inst;
    inst.op = pool[rng.below(pool.size())];
    // r1..r14 (avoid the link register so calls/rets stay out of scope).
    inst.rd = static_cast<sim::Reg>(1 + rng.below(14));
    inst.rs1 = static_cast<sim::Reg>(rng.below(15));
    inst.rs2 = static_cast<sim::Reg>(rng.below(15));
    inst.imm = static_cast<std::int64_t>(rng.next_u32() & 0xFFFF);
    generated.push_back(inst);
  }
  // Assemble via the raw builder surface: replay each decoded instruction.
  for (const auto& inst : generated) {
    switch (inst.op) {
      case sim::Opcode::kLoadImm: b.li(inst.rd, inst.imm); break;
      case sim::Opcode::kAdd: b.add(inst.rd, inst.rs1, inst.rs2); break;
      case sim::Opcode::kSub: b.sub(inst.rd, inst.rs1, inst.rs2); break;
      case sim::Opcode::kAnd: b.and_(inst.rd, inst.rs1, inst.rs2); break;
      case sim::Opcode::kOr: b.or_(inst.rd, inst.rs1, inst.rs2); break;
      case sim::Opcode::kXor: b.xor_(inst.rd, inst.rs1, inst.rs2); break;
      case sim::Opcode::kShl: b.shl(inst.rd, inst.rs1, inst.rs2); break;
      case sim::Opcode::kShr: b.shr(inst.rd, inst.rs1, inst.rs2); break;
      case sim::Opcode::kMul: b.mul(inst.rd, inst.rs1, inst.rs2); break;
      case sim::Opcode::kAddImm: b.addi(inst.rd, inst.rs1, inst.imm); break;
      case sim::Opcode::kAndImm: b.andi(inst.rd, inst.rs1, inst.imm); break;
      case sim::Opcode::kXorImm: b.xori(inst.rd, inst.rs1, inst.imm); break;
      case sim::Opcode::kShlImm: b.shli(inst.rd, inst.rs1, inst.imm); break;
      case sim::Opcode::kShrImm: b.shri(inst.rd, inst.rs1, inst.imm); break;
      default: break;
    }
    ref_eval(inst, ref);
  }
  b.halt();
  const sim::Program program = b.build();
  machine.cpu(0).load_program(program);
  const auto result = machine.cpu(0).run_from(program.base, 1000);
  ASSERT_TRUE(result.halted);
  for (std::uint32_t r = 1; r < sim::kNumRegs; ++r) {
    ASSERT_EQ(machine.cpu(0).reg(static_cast<sim::Reg>(r)),
              ref.reg(static_cast<sim::Reg>(r)))
        << "register r" << r << " diverged (seed " << GetParam() << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomAluProgramTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88, 99, 110));

}  // namespace
