// Tests for the static WASM bytecode verifier: the interval domain, the
// three verification layers (structural / abstract interpretation / cost
// bounds), the machine-checked soundness contract over a seeded fuzz sweep,
// and the admission gate it feeds (enclave refusal, attest_and_admit, serve
// tenant cost surcharges).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "analysis/wasm_verifier.hpp"
#include "graph/zoo.hpp"
#include "platform/baseboard.hpp"
#include "platform/fabric.hpp"
#include "platform/faults.hpp"
#include "platform/microserver.hpp"
#include "security/attestation.hpp"
#include "security/enclave.hpp"
#include "security/kvstore.hpp"
#include "serve/fleet.hpp"
#include "util/rng.hpp"

namespace vedliot {
namespace {

using analysis::Interval;
using security::WFunction;
using security::WInstr;
using security::WModule;
using security::WOp;
using security::WasmTrap;
using security::WasmVm;

// ---------------------------------------------------------------------------
// Interval domain
// ---------------------------------------------------------------------------

TEST(Interval, JoinAndWiden) {
  const Interval a{1, 5}, b{3, 9};
  EXPECT_EQ(analysis::interval_join(a, b), (Interval{1, 9}));
  // A bound that moved jumps to the i32 extreme; a stable bound stays.
  EXPECT_EQ(analysis::interval_widen({0, 5}, {0, 6}), (Interval{0, Interval::kMax}));
  EXPECT_EQ(analysis::interval_widen({0, 5}, {-1, 5}), (Interval{Interval::kMin, 5}));
  EXPECT_EQ(analysis::interval_widen({0, 5}, {0, 5}), (Interval{0, 5}));
}

TEST(Interval, AddSubDetectWrap) {
  EXPECT_EQ(analysis::interval_add({1, 2}, {10, 20}), (Interval{11, 22}));
  // INT32_MAX + 1 can wrap in the VM's uint32 arithmetic: must go to top.
  EXPECT_TRUE(analysis::interval_add({Interval::kMax, Interval::kMax}, {1, 1}).is_top());
  EXPECT_EQ(analysis::interval_sub({10, 20}, {1, 2}), (Interval{8, 19}));
  EXPECT_TRUE(analysis::interval_sub({Interval::kMin, Interval::kMin}, {1, 1}).is_top());
}

TEST(Interval, MulCorners) {
  EXPECT_EQ(analysis::interval_mul({-3, 2}, {4, 5}), (Interval{-15, 10}));
  EXPECT_TRUE(analysis::interval_mul({1 << 20, 1 << 20}, {1 << 20, 1 << 20}).is_top());
}

TEST(Interval, DivRemContainConcreteResults) {
  // One-signed divisor: exact corner arithmetic.
  EXPECT_EQ(analysis::interval_div_s({10, 20}, {2, 5}), (Interval{2, 10}));
  EXPECT_EQ(analysis::interval_div_s({-20, -10}, {2, 5}), (Interval{-10, -2}));
  // Remainder magnitude bounded by divisor and dividend, sign of dividend.
  const Interval r = analysis::interval_rem_s({0, 100}, {7, 7});
  EXPECT_TRUE(r.contains(0));
  EXPECT_TRUE(r.contains(6));
  EXPECT_FALSE(r.contains(-1));
  EXPECT_FALSE(r.contains(7));
}

TEST(Interval, BitwiseBounds) {
  EXPECT_EQ(analysis::interval_and({0, 100}, {0, 15}), (Interval{0, 15}));
  EXPECT_TRUE(analysis::interval_and({-5, 5}, {-5, 5}).is_top());
  // x | y for x,y in [0,5] stays under the covering mask 7 and >= max lo.
  const Interval o = analysis::interval_or({2, 5}, {1, 5});
  EXPECT_TRUE(o.within(2, 7));
  EXPECT_TRUE(analysis::interval_xor({0, 5}, {0, 5}).within(0, 7));
  EXPECT_EQ(analysis::interval_shl({1, 3}, {2, 2}), (Interval{4, 12}));
  EXPECT_EQ(analysis::interval_shr_s({-8, 8}, {1, 1}), (Interval{-4, 4}));
  EXPECT_EQ(analysis::interval_bool(), (Interval{0, 1}));
}

// Exhaustive containment: for small operand ranges, every concrete VM result
// (wrapping i32) must land inside the abstract result.
TEST(Interval, TransferSoundnessExhaustiveSmall) {
  const std::vector<Interval> samples = {
      {0, 3}, {-2, 2}, {-3, -1}, {5, 9}, {Interval::kMax - 1, Interval::kMax}};
  auto wrap32 = [](std::int64_t v) {
    return static_cast<std::int32_t>(static_cast<std::uint32_t>(v));
  };
  for (const Interval& a : samples) {
    for (const Interval& b : samples) {
      const Interval sum = analysis::interval_add(a, b);
      const Interval dif = analysis::interval_sub(a, b);
      const Interval mul = analysis::interval_mul(a, b);
      for (std::int64_t x = a.lo; x <= a.hi; ++x) {
        for (std::int64_t y = b.lo; y <= b.hi; ++y) {
          EXPECT_TRUE(sum.contains(wrap32(x + y))) << x << "+" << y;
          EXPECT_TRUE(dif.contains(wrap32(x - y))) << x << "-" << y;
          EXPECT_TRUE(mul.contains(wrap32(x * y))) << x << "*" << y;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Verifier: clean modules
// ---------------------------------------------------------------------------

WModule add_module() {
  WModule m;
  m.code = {{WOp::kLocalGet, 0}, {WOp::kLocalGet, 1}, {WOp::kAdd, 0}, {WOp::kRet, 0}};
  m.functions = {{"add", 0, 2, 2, true}};
  return m;
}

// A branched but loop-free module: abs(x) via kJmpIfZ over a comparison.
// Both arms reach the kRet at pc 8 with exactly one value on the stack.
WModule abs_module() {
  WModule m;
  m.code = {
      {WOp::kLocalGet, 0},  // 0: x (the eventual return value)
      {WOp::kLocalGet, 0},  // 1: x (the branch condition copy)
      {WOp::kConst, 0},     // 2
      {WOp::kLtS, 0},       // 3: x < 0
      {WOp::kJmpIfZ, 8},    // 4: not negative -> return x as pushed
      {WOp::kConst, -1},    // 5
      {WOp::kMul, 0},       // 6: x * -1
      {WOp::kJmp, 8},       // 7
      {WOp::kRet, 0},       // 8
  };
  m.functions = {{"abs", 0, 1, 1, true}};
  return m;
}

TEST(WasmVerifier, CleanStraightLineModuleFullyAccepted) {
  const auto res = analysis::verify_module(add_module());
  EXPECT_TRUE(res.ok());
  EXPECT_TRUE(res.accepted());
  EXPECT_TRUE(res.memory_proven);
  EXPECT_TRUE(res.arithmetic_proven);
  EXPECT_TRUE(res.cost_bounded);
  ASSERT_EQ(res.functions.size(), 1u);
  EXPECT_TRUE(res.functions[0].fuel_bound.has_value());
  EXPECT_FALSE(res.functions[0].has_loop);
  EXPECT_FALSE(res.functions[0].recursive);
  EXPECT_EQ(res.functions[0].max_stack_depth, 2u);
}

TEST(WasmVerifier, StaticFuelBoundCoversMeasuredRetirement) {
  const WModule m = add_module();
  const auto res = analysis::verify_module(m);
  ASSERT_TRUE(res.cost_bounded);
  WasmVm vm(m);
  EXPECT_EQ(vm.invoke("add", {20, 22}), 42);
  // The bound is worst-case over all paths; for straight-line code, exact.
  EXPECT_EQ(res.module_fuel_bound, vm.instructions_retired());
  EXPECT_EQ(res.module_fuel_bound, 4u);
}

TEST(WasmVerifier, BranchedModuleBoundIsLongestPath) {
  const WModule m = abs_module();
  const auto res = analysis::verify_module(m);
  EXPECT_TRUE(res.ok()) << res.report.to_table();
  ASSERT_TRUE(res.cost_bounded);
  WasmVm vm(m);
  EXPECT_EQ(vm.invoke("abs", {-7}), 7);
  const std::uint64_t negative_path = vm.instructions_retired();
  EXPECT_EQ(vm.invoke("abs", {7}), 7);
  const std::uint64_t positive_path = vm.instructions_retired() - negative_path;
  // Static bound >= every measured path, equal to the longest one.
  EXPECT_GE(res.module_fuel_bound, negative_path);
  EXPECT_GE(res.module_fuel_bound, positive_path);
  EXPECT_EQ(res.module_fuel_bound, std::max(negative_path, positive_path));
}

TEST(WasmVerifier, KvModuleVerifiedButUnprovenAndUnbounded) {
  const auto res = analysis::verify_module(security::build_kv_module(64));
  // Loops with data-dependent indexing: runnable (no errors) but neither
  // memory-proven nor cost-bounded — exactly the class that needs runtime
  // fuel metering and bounds checks.
  EXPECT_TRUE(res.ok()) << res.report.to_table();
  EXPECT_FALSE(res.accepted());
  EXPECT_FALSE(res.memory_proven);
  EXPECT_FALSE(res.cost_bounded);
  EXPECT_TRUE(res.report.has("wasm.mem.unproven"));
  EXPECT_TRUE(res.report.has("wasm.cost.unbounded"));
  EXPECT_FALSE(res.report.has("wasm.verify.budget"));
  for (const auto& f : res.functions) EXPECT_TRUE(f.has_loop) << f.name;
}

TEST(WasmVerifier, HostSignaturesCheckArityAndRegistration) {
  WModule m;
  m.code = {{WOp::kConst, 1}, {WOp::kHostCall, 0}, {WOp::kRet, 0}};
  m.functions = {{"f", 0, 0, 0, true}};
  const std::vector<analysis::WasmHostSig> one_arg = {{"log", 1}};
  EXPECT_TRUE(analysis::verify_module(m, one_arg).ok());
  // Same module against a 2-arg import: provable stack underflow at the call.
  const std::vector<analysis::WasmHostSig> two_args = {{"log2", 2}};
  const auto res = analysis::verify_module(m, two_args);
  EXPECT_FALSE(res.ok());
  EXPECT_TRUE(res.report.has("wasm.host.arity"));
  // And against no registered imports at all: a structural error.
  EXPECT_TRUE(analysis::verify_module(m).report.has("wasm.struct.host.target"));
}

// ---------------------------------------------------------------------------
// Defect classes: static check id + companion unverified-execution behavior
// ---------------------------------------------------------------------------

std::string trap_message(WasmVm& vm, const std::string& fn,
                         const std::vector<std::int32_t>& args) {
  try {
    (void)vm.invoke(fn, args);
  } catch (const WasmTrap& t) {
    return t.what();
  }
  return "<no trap>";
}

struct DefectCase {
  const char* name;
  const char* check;        ///< stable wasm.* id the verifier must emit
  const char* trap_substr;  ///< substring of the trap when run unverified
  WModule (*make)();
};

TEST(WasmVerifier, DefectClassesCarryStableCheckIdsAndTrapUnverified) {
  const DefectCase cases[] = {
      {"wild-jump", "wasm.struct.jump.target", "pc out of range",
       [] {
         WModule m;
         m.code = {{WOp::kJmp, 99}};
         m.functions = {{"f", 0, 0, 0, false}};
         return m;
       }},
      {"fallthrough", "wasm.flow.fallthrough", "pc out of range",
       [] {
         WModule m;
         m.code = {{WOp::kConst, 1}, {WOp::kDrop, 0}};
         m.functions = {{"f", 0, 0, 0, false}};
         return m;
       }},
      {"call-target", "wasm.struct.call.target", "call target out of range",
       [] {
         WModule m;
         m.code = {{WOp::kCall, 9}, {WOp::kHalt, 0}};
         m.functions = {{"f", 0, 0, 0, false}};
         return m;
       }},
      {"host-target", "wasm.struct.host.target", "host import out of range",
       [] {
         WModule m;
         m.code = {{WOp::kHostCall, 3}, {WOp::kHalt, 0}};
         m.functions = {{"f", 0, 0, 0, false}};
         return m;
       }},
      {"local-index", "wasm.struct.local.index", "local index out of range",
       [] {
         WModule m;
         m.code = {{WOp::kLocalGet, 7}, {WOp::kRet, 0}};
         m.functions = {{"f", 0, 0, 1, true}};
         return m;
       }},
      {"stack-underflow", "wasm.stack.underflow", "value stack underflow",
       [] {
         WModule m;
         m.code = {{WOp::kAdd, 0}, {WOp::kHalt, 0}};
         m.functions = {{"f", 0, 0, 0, false}};
         return m;
       }},
      {"ret-missing", "wasm.stack.ret.missing", "value stack underflow",
       [] {
         WModule m;
         m.code = {{WOp::kRet, 0}};
         m.functions = {{"f", 0, 0, 0, true}};
         return m;
       }},
      {"mem-oob", "wasm.mem.oob", "out-of-bounds linear memory access",
       [] {
         WModule m;
         m.code = {{WOp::kConst, 70000}, {WOp::kConst, 1}, {WOp::kStore, 0}, {WOp::kHalt, 0}};
         m.functions = {{"f", 0, 0, 0, false}};
         return m;
       }},
      {"div-zero", "wasm.div.zero", "integer division by zero",
       [] {
         WModule m;
         m.code = {{WOp::kConst, 1}, {WOp::kConst, 0}, {WOp::kDivS, 0}, {WOp::kRet, 0}};
         m.functions = {{"f", 0, 0, 0, true}};
         return m;
       }},
      {"div-overflow", "wasm.div.overflow", "integer overflow in division",
       [] {
         WModule m;
         m.code = {{WOp::kConst, INT32_MIN}, {WOp::kConst, -1}, {WOp::kDivS, 0}, {WOp::kRet, 0}};
         m.functions = {{"f", 0, 0, 0, true}};
         return m;
       }},
      {"rem-zero", "wasm.rem.zero", "integer remainder by zero",
       [] {
         WModule m;
         m.code = {{WOp::kConst, 1}, {WOp::kConst, 0}, {WOp::kRemS, 0}, {WOp::kRet, 0}};
         m.functions = {{"f", 0, 0, 0, true}};
         return m;
       }},
      {"recursion", "wasm.cost.unbounded", "call stack exhausted",
       [] {
         WModule m;
         m.code = {{WOp::kCall, 0}, {WOp::kRet, 0}};
         m.functions = {{"f", 0, 0, 0, false}};
         return m;
       }},
  };
  for (const auto& c : cases) {
    const WModule m = c.make();
    const auto res = analysis::verify_module(m);
    EXPECT_TRUE(res.report.has(c.check))
        << c.name << " expected " << c.check << "\n"
        << res.report.to_table();
    EXPECT_FALSE(res.accepted()) << c.name;
    // Companion: the exact runtime failure the static check pre-empts.
    WasmVm vm(m);
    const std::string trap = trap_message(vm, "f", {});
    EXPECT_NE(trap.find(c.trap_substr), std::string::npos)
        << c.name << ": trap was '" << trap << "'";
  }
}

TEST(WasmVerifier, UndecodableOpcodeIsRejectedEvenThoughVmIgnoresIt) {
  // The VM's dispatch switch silently skips an unknown opcode — it cannot
  // trap. That makes the static check the only line of defense against
  // smuggled bytes, so it must be an error-severity rejection.
  WModule m;
  m.code = {{static_cast<WOp>(200), 0}, {WOp::kHalt, 0}};
  m.functions = {{"f", 0, 0, 0, false}};
  const auto res = analysis::verify_module(m);
  EXPECT_TRUE(res.report.has("wasm.struct.opcode"));
  EXPECT_FALSE(res.ok());
  WasmVm vm(m);
  EXPECT_NO_THROW((void)vm.invoke("f", {}));
}

TEST(WasmVerifier, DepthMismatchAndSpuriousStackDetected) {
  WModule m;
  m.code = {{WOp::kLocalGet, 0},
            {WOp::kJmpIfZ, 3},
            {WOp::kConst, 1},
            {WOp::kRet, 0}};
  m.functions = {{"f", 0, 1, 1, true}};
  const auto res = analysis::verify_module(m);
  EXPECT_FALSE(res.ok());
  EXPECT_TRUE(res.report.has("wasm.stack.depth.mismatch")) << res.report.to_table();
}

TEST(WasmVerifier, JmpIfZRefinementProvesConstantGuardedPaths) {
  // if (0) { provably-trapping division } else { fine }: the refinement on a
  // constant condition must prune the dead trapping arm.
  WModule m;
  m.code = {
      {WOp::kConst, 1},    // 0: condition, never zero
      {WOp::kJmpIfZ, 6},   // 1: dead edge to the trapping arm
      {WOp::kConst, 42},   // 2
      {WOp::kRet, 0},      // 3
      {WOp::kConst, 0},    // 4: unreachable filler
      {WOp::kHalt, 0},     // 5
      {WOp::kConst, 1},    // 6: dead arm: 1 / 0
      {WOp::kConst, 0},    // 7
      {WOp::kDivS, 0},     // 8
      {WOp::kRet, 0},      // 9
  };
  m.functions = {{"f", 0, 0, 0, true}};
  const auto res = analysis::verify_module(m);
  EXPECT_FALSE(res.report.has("wasm.div.zero")) << res.report.to_table();
  EXPECT_TRUE(res.ok());
  EXPECT_TRUE(res.report.has("wasm.flow.unreachable"));
}

// ---------------------------------------------------------------------------
// Soundness fuzz sweep: accepted => trap-free (fuel exhaustion excepted)
// ---------------------------------------------------------------------------

WModule fuzz_module(std::uint64_t seed) {
  Rng rng(seed);
  WModule m;
  const int body = rng.uniform_int(3, 14);
  const auto nargs = static_cast<std::uint32_t>(rng.uniform_int(0, 2));
  const auto nlocals = nargs + static_cast<std::uint32_t>(rng.uniform_int(0, 2));
  const int max_local = nlocals == 0 ? 0 : static_cast<int>(nlocals) - 1;
  for (int i = 0; i < body; ++i) {
    const int pick = static_cast<int>(rng.uniform_int(0, 99));
    WInstr ins{WOp::kHalt, 0};
    if (pick < 22) {
      ins = {WOp::kConst, static_cast<std::int32_t>(rng.uniform_int(-200, 200))};
    } else if (pick < 34 && nlocals > 0) {
      ins = {WOp::kLocalGet, static_cast<std::int32_t>(rng.uniform_int(0, max_local))};
    } else if (pick < 40 && nlocals > 0) {
      ins = {WOp::kLocalSet, static_cast<std::int32_t>(rng.uniform_int(0, max_local))};
    } else if (pick < 58) {
      const WOp arith[] = {WOp::kAdd, WOp::kSub, WOp::kMul, WOp::kAnd, WOp::kOr,
                           WOp::kXor, WOp::kShl, WOp::kShrS, WOp::kEq,  WOp::kNe,
                           WOp::kLtS, WOp::kGtS, WOp::kLeS,  WOp::kGeS};
      ins = {arith[rng.uniform_int(0, 13)], 0};
    } else if (pick < 64) {
      ins = {rng.chance(0.5) ? WOp::kDivS : WOp::kRemS, 0};
    } else if (pick < 74) {
      // In-range addresses sometimes, garbage sometimes.
      const std::int32_t imm =
          rng.chance(0.7) ? static_cast<std::int32_t>(rng.uniform_int(0, 60000))
                          : static_cast<std::int32_t>(rng.uniform_int(-100000, 100000));
      ins = {rng.chance(0.5) ? WOp::kLoad : WOp::kStore, imm};
    } else if (pick < 84) {
      // Mostly in-range jump targets (loops included), sometimes wild.
      const std::int32_t target =
          rng.chance(0.85) ? static_cast<std::int32_t>(rng.uniform_int(0, body))
                           : static_cast<std::int32_t>(rng.uniform_int(-5, 500));
      ins = {rng.chance(0.5) ? WOp::kJmp : WOp::kJmpIfZ, target};
    } else if (pick < 88) {
      ins = {WOp::kCall, static_cast<std::int32_t>(rng.uniform_int(0, 1))};
    } else if (pick < 92) {
      ins = {WOp::kHostCall, 0};
    } else if (pick < 96) {
      ins = {WOp::kDrop, 0};
    } else {
      ins = {rng.chance(0.5) ? WOp::kRet : WOp::kHalt, 0};
    }
    m.code.push_back(ins);
  }
  m.code.push_back({rng.chance(0.5) ? WOp::kRet : WOp::kHalt, 0});
  m.functions = {{"f", 0, nargs, nlocals, rng.chance(0.5)}};
  return m;
}

TEST(WasmVerifier, FuzzSoundnessAcceptedModulesNeverTrapExceptFuel) {
  constexpr int kModules = 600;
  constexpr std::uint64_t kFuel = 20000;
  int accepted = 0, fuel_exhausted = 0;
  for (int seed = 1; seed <= kModules; ++seed) {
    const WModule m = fuzz_module(static_cast<std::uint64_t>(seed));
    const auto res = analysis::verify_module(m);
    if (!res.accepted()) continue;
    ++accepted;
    WasmVm vm(m);
    vm.set_fuel_limit(kFuel);
    Rng arg_rng(static_cast<std::uint64_t>(seed) * 7919);
    const WFunction& fn = m.functions[0];
    for (int run = 0; run < 3; ++run) {
      std::vector<std::int32_t> args(fn.nargs);
      for (auto& a : args) {
        a = run == 0 ? std::numeric_limits<std::int32_t>::min()
                     : static_cast<std::int32_t>(arg_rng.uniform_int(-1000000, 1000000));
      }
      try {
        (void)vm.invoke("f", args);
      } catch (const WasmTrap& t) {
        // The one permitted trap. Anything else falsifies the contract.
        ASSERT_STREQ(t.what(), "fuel exhausted")
            << "seed " << seed << " accepted but trapped: " << t.what();
        ++fuel_exhausted;
        break;  // the VM's fuel ledger is cumulative; stop this module
      }
    }
    // Accepted AND cost-bounded: the measured retirement of every invoke
    // must stay within bound * invokes.
    if (res.cost_bounded) {
      EXPECT_LE(vm.instructions_retired(), 3 * res.module_fuel_bound) << "seed " << seed;
    }
  }
  // The generator is tuned so the sweep actually exercises the contract.
  EXPECT_GE(accepted, 20) << "fuzz generator accepts too rarely to be meaningful";
  RecordProperty("accepted", accepted);
  RecordProperty("fuel_exhausted", fuel_exhausted);
}

TEST(WasmVerifier, FuzzRejectionsAreDeterministic) {
  // Same seed, same module, same findings — byte-for-byte (stable check ids
  // are part of the CLI/CI contract).
  for (int seed = 1; seed <= 50; ++seed) {
    const auto a = analysis::verify_module(fuzz_module(static_cast<std::uint64_t>(seed)));
    const auto b = analysis::verify_module(fuzz_module(static_cast<std::uint64_t>(seed)));
    EXPECT_EQ(a.report.to_json_lines(), b.report.to_json_lines()) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Admission: enclave gate, attestation, serve tenant costs
// ---------------------------------------------------------------------------

security::Key root_key() {
  security::Key k{};
  k[3] = 0x42;
  return k;
}

TEST(Admission, EnclaveRefusesUnverifiedModuleByDefault) {
  EXPECT_THROW(security::Enclave(security::EnclaveConfig{}, add_module(), root_key()),
               security::EnclaveError);
}

TEST(Admission, EnclaveRefusesTicketForDifferentModule) {
  // A genuine admission for `add`, presented with the kv module: digest
  // mismatch against the enclave measurement.
  const WModule add = add_module();
  const auto adm = analysis::make_admission(add, analysis::verify_module(add));
  EXPECT_THROW(security::Enclave(security::EnclaveConfig{}, security::build_kv_module(16),
                                 root_key(), adm),
               security::EnclaveError);
}

TEST(Admission, EnclaveAcceptsVerifiedModuleAndRuns) {
  const WModule add = add_module();
  const auto adm = analysis::make_admission(add, analysis::verify_module(add));
  EXPECT_TRUE(adm.verified);
  EXPECT_TRUE(adm.memory_proven);
  EXPECT_TRUE(adm.arithmetic_proven);
  ASSERT_TRUE(adm.cost_bounded);
  EXPECT_EQ(adm.fuel_bound, 4u);
  security::Enclave enc(security::EnclaveConfig{}, add, root_key(), adm);
  EXPECT_EQ(enc.ecall("add", {40, 2}), 42);
}

TEST(Admission, EnclaveRequireCostBoundRefusesLoopsAndClampsFuel) {
  security::EnclaveConfig strict;
  strict.require_cost_bound = true;

  // kv has loops: no static bound, refused outright under the strict policy.
  const WModule kv = security::build_kv_module(16);
  const auto kv_adm = analysis::make_admission(kv, analysis::verify_module(kv));
  EXPECT_FALSE(kv_adm.cost_bounded);
  EXPECT_THROW(security::Enclave(strict, kv, root_key(), kv_adm), security::EnclaveError);

  // A forged ticket claiming a tighter bound than reality: the per-ecall
  // fuel clamp turns the lie into an immediate trap instead of free cycles.
  const WModule add = add_module();
  auto lying = analysis::make_admission(add, analysis::verify_module(add));
  lying.fuel_bound = 2;  // actual cost is 4
  security::Enclave enc(strict, add, root_key(), lying);
  EXPECT_THROW((void)enc.ecall("add", {1, 2}), WasmTrap);

  // The honest bound runs repeatedly: the clamp re-anchors per ecall.
  const auto honest = analysis::make_admission(add, analysis::verify_module(add));
  security::Enclave ok(strict, add, root_key(), honest);
  EXPECT_EQ(ok.ecall("add", {1, 2}), 3);
  EXPECT_EQ(ok.ecall("add", {2, 3}), 5);
  EXPECT_EQ(ok.ecall("add", {3, 4}), 7);
}

TEST(Admission, AttestAndAdmitBindsQuoteToVerifiedModule) {
  security::Key authority_root{};
  authority_root[0] = 0x77;
  security::AttestationAuthority authority(authority_root);
  security::DeviceAgent device("edge-1", authority.provision("edge-1"));

  const WModule add = add_module();
  const auto adm = analysis::make_admission(add, analysis::verify_module(add));
  const auto quote = device.quote(security::sha256(add.serialize()), 1001);
  EXPECT_TRUE(security::attest_and_admit(authority, quote, 1001, adm));
  // Wrong nonce: replay refused.
  EXPECT_FALSE(security::attest_and_admit(authority, quote, 1002, adm));
  // Quote over a different module than the admission covers.
  const auto other = device.quote(security::sha256(security::build_kv_module(8).serialize()), 1003);
  EXPECT_FALSE(security::attest_and_admit(authority, other, 1003, adm));
  // Unverified admission never admits, even with a genuine quote.
  security::ModuleAdmission unverified = adm;
  unverified.verified = false;
  EXPECT_FALSE(security::attest_and_admit(authority, quote, 1001, unverified));
}

TEST(Admission, TenantCostDerivesFromFuelBound) {
  const WModule add = add_module();
  const auto adm = analysis::make_admission(add, analysis::verify_module(add));
  // 4 instructions at 2 ns/instr = 8 ns.
  EXPECT_DOUBLE_EQ(security::tenant_cost_s(adm, 2.0), 8e-9);
  const WModule kv = security::build_kv_module(16);
  const auto kv_adm = analysis::make_admission(kv, analysis::verify_module(kv));
  EXPECT_TRUE(std::isinf(security::tenant_cost_s(kv_adm, 2.0)));
}

// ---------------------------------------------------------------------------
// Serve layer: per-tenant surcharge from the static cost bound
// ---------------------------------------------------------------------------

const Graph& resnet_graph() {
  static const Graph g = zoo::resnet50(1, 100, 64);
  return g;
}

TEST(ServeTenantCost, UnboundedTenantShedBoundedTenantServed) {
  platform::Chassis chassis(platform::recs_box());
  chassis.install("come0", platform::find_module("COMe-XavierAGX"));
  platform::Fabric fabric =
      platform::star_fabric({"come0", "come1", "come2", "come3"}, 10.0, {1.0, 10.0});
  platform::PlatformSimulator sim(chassis, fabric);

  serve::FleetConfig cfg;
  cfg.graph = &resnet_graph();
  cfg.variants = {{"resnet50-fp32", &resnet_graph(), DType::kFP32, false}};
  cfg.ladder = {{0, 0}};
  cfg.modules = {"COMe-XavierAGX"};
  cfg.min_replicas = cfg.initial_replicas = cfg.max_replicas = 1;
  cfg.sim = &sim;

  const WModule add = add_module();
  const WModule kv = security::build_kv_module(16);
  const double vm_ns = security::EnclaveConfig{}.vm_ns_per_instr;
  cfg.tenant_cost_s["tenant-add"] =
      security::tenant_cost_s(analysis::make_admission(add, analysis::verify_module(add)), vm_ns);
  cfg.tenant_cost_s["tenant-kv"] =
      security::tenant_cost_s(analysis::make_admission(kv, analysis::verify_module(kv)), vm_ns);

  serve::Fleet fleet(cfg);
  auto req = [](const std::string& client, double arrival) {
    serve::Request r;
    r.client = client;
    r.arrival_s = arrival;
    r.deadline_s = arrival + 50e-3;
    return r;
  };
  fleet.submit(req("tenant-kv", 1e-3));
  fleet.submit(req("tenant-add", 2e-3));
  fleet.submit(req("unknown-tenant", 3e-3));
  const serve::FleetReport r = fleet.run(0.1);

  // The cost-unbounded tenant is shed at admission with an explicit reason;
  // the bounded tenant and unconfigured clients serve normally.
  EXPECT_EQ(r.offered, 3u);
  EXPECT_EQ(r.shed, 1u);
  EXPECT_EQ(r.completed, 2u);
  const auto shed_it =
      std::find_if(r.events.begin(), r.events.end(), [](const serve::ServeEvent& e) {
        return e.kind == serve::ServeEventKind::kShed;
      });
  ASSERT_NE(shed_it, r.events.end());
  EXPECT_NE(shed_it->detail.find("no static cost bound"), std::string::npos)
      << shed_it->detail;
}

}  // namespace
}  // namespace vedliot
