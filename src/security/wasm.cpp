#include "security/wasm.hpp"

#include <cstring>

namespace vedliot::security {

std::vector<std::uint8_t> WModule::serialize() const {
  std::vector<std::uint8_t> out;
  out.reserve(code.size() * 5 + data.size());
  for (const auto& ins : code) {
    out.push_back(static_cast<std::uint8_t>(ins.op));
    for (int i = 0; i < 4; ++i) {
      out.push_back(static_cast<std::uint8_t>(static_cast<std::uint32_t>(ins.imm) >> (8 * i)));
    }
  }
  out.insert(out.end(), data.begin(), data.end());
  return out;
}

std::uint32_t WModule::find_function(const std::string& name) const {
  for (std::uint32_t i = 0; i < functions.size(); ++i) {
    if (functions[i].name == name) return i;
  }
  throw NotFound("wasm module has no function " + name);
}

WasmVm::WasmVm(WModule module) : module_(std::move(module)), memory_(module_.memory_bytes, 0) {
  VEDLIOT_CHECK(module_.data.size() <= memory_.size(), "data segment exceeds linear memory");
  // An empty segment's data() may be null, which memcpy must not see.
  if (!module_.data.empty()) std::memcpy(memory_.data(), module_.data.data(), module_.data.size());
}

void WasmVm::add_host(HostImport import) { hosts_.push_back(std::move(import)); }

std::int32_t WasmVm::invoke(const std::string& fn, const std::vector<std::int32_t>& args) {
  return call(module_.find_function(fn), args, 0);
}

std::int32_t WasmVm::call(std::uint32_t fn_index, const std::vector<std::int32_t>& args,
                          int depth) {
  if (depth > 256) throw WasmTrap("call stack exhausted");
  VEDLIOT_CHECK(fn_index < module_.functions.size(), "function index out of range");
  const WFunction& fn = module_.functions[fn_index];
  if (args.size() != fn.nargs) {
    throw WasmTrap("function " + fn.name + " expects " + std::to_string(fn.nargs) + " args");
  }
  std::vector<std::int32_t> locals(std::max<std::uint32_t>(fn.nlocals, fn.nargs), 0);
  std::copy(args.begin(), args.end(), locals.begin());

  std::vector<std::int32_t> stack;
  auto pop = [&]() {
    if (stack.empty()) throw WasmTrap("value stack underflow in " + fn.name);
    const std::int32_t v = stack.back();
    stack.pop_back();
    return v;
  };
  auto mem_check = [&](std::int64_t addr) {
    if (addr < 0 || addr + 4 > static_cast<std::int64_t>(memory_.size())) {
      throw WasmTrap("out-of-bounds linear memory access at " + std::to_string(addr));
    }
  };

  std::uint32_t pc = fn.entry;
  while (true) {
    if (pc >= module_.code.size()) throw WasmTrap("pc out of range in " + fn.name);
    if (++retired_ > fuel_limit_) throw WasmTrap("fuel exhausted");
    const WInstr ins = module_.code[pc];
    ++pc;
    switch (ins.op) {
      case WOp::kConst: stack.push_back(ins.imm); break;
      case WOp::kLocalGet: {
        const auto i = static_cast<std::size_t>(ins.imm);
        if (i >= locals.size()) throw WasmTrap("local index out of range");
        stack.push_back(locals[i]);
        break;
      }
      case WOp::kLocalSet: {
        const auto i = static_cast<std::size_t>(ins.imm);
        if (i >= locals.size()) throw WasmTrap("local index out of range");
        locals[i] = pop();
        break;
      }
      case WOp::kAdd: { const auto b = pop(), a = pop(); stack.push_back(static_cast<std::int32_t>(
          static_cast<std::uint32_t>(a) + static_cast<std::uint32_t>(b))); break; }
      case WOp::kSub: { const auto b = pop(), a = pop(); stack.push_back(static_cast<std::int32_t>(
          static_cast<std::uint32_t>(a) - static_cast<std::uint32_t>(b))); break; }
      case WOp::kMul: { const auto b = pop(), a = pop(); stack.push_back(static_cast<std::int32_t>(
          static_cast<std::uint32_t>(a) * static_cast<std::uint32_t>(b))); break; }
      case WOp::kDivS: {
        const auto b = pop(), a = pop();
        if (b == 0) throw WasmTrap("integer division by zero");
        if (a == INT32_MIN && b == -1) throw WasmTrap("integer overflow in division");
        stack.push_back(a / b);
        break;
      }
      case WOp::kRemS: {
        const auto b = pop(), a = pop();
        if (b == 0) throw WasmTrap("integer remainder by zero");
        if (a == INT32_MIN && b == -1) { stack.push_back(0); break; }
        stack.push_back(a % b);
        break;
      }
      case WOp::kAnd: { const auto b = pop(), a = pop(); stack.push_back(a & b); break; }
      case WOp::kOr: { const auto b = pop(), a = pop(); stack.push_back(a | b); break; }
      case WOp::kXor: { const auto b = pop(), a = pop(); stack.push_back(a ^ b); break; }
      case WOp::kShl: { const auto b = pop(), a = pop(); stack.push_back(static_cast<std::int32_t>(
          static_cast<std::uint32_t>(a) << (static_cast<std::uint32_t>(b) & 31u))); break; }
      case WOp::kShrS: { const auto b = pop(), a = pop(); stack.push_back(a >> (static_cast<std::uint32_t>(b) & 31u)); break; }
      case WOp::kEq: { const auto b = pop(), a = pop(); stack.push_back(a == b ? 1 : 0); break; }
      case WOp::kNe: { const auto b = pop(), a = pop(); stack.push_back(a != b ? 1 : 0); break; }
      case WOp::kLtS: { const auto b = pop(), a = pop(); stack.push_back(a < b ? 1 : 0); break; }
      case WOp::kGtS: { const auto b = pop(), a = pop(); stack.push_back(a > b ? 1 : 0); break; }
      case WOp::kLeS: { const auto b = pop(), a = pop(); stack.push_back(a <= b ? 1 : 0); break; }
      case WOp::kGeS: { const auto b = pop(), a = pop(); stack.push_back(a >= b ? 1 : 0); break; }
      case WOp::kLoad: {
        const std::int64_t addr = static_cast<std::int64_t>(pop()) + ins.imm;
        mem_check(addr);
        std::int32_t v;
        std::memcpy(&v, memory_.data() + addr, 4);
        stack.push_back(v);
        break;
      }
      case WOp::kStore: {
        const std::int32_t v = pop();
        const std::int64_t addr = static_cast<std::int64_t>(pop()) + ins.imm;
        mem_check(addr);
        std::memcpy(memory_.data() + addr, &v, 4);
        break;
      }
      case WOp::kJmp:
        pc = static_cast<std::uint32_t>(ins.imm);
        break;
      case WOp::kJmpIfZ:
        if (pop() == 0) pc = static_cast<std::uint32_t>(ins.imm);
        break;
      case WOp::kCall: {
        const auto callee = static_cast<std::uint32_t>(ins.imm);
        if (callee >= module_.functions.size()) throw WasmTrap("call target out of range");
        const WFunction& cf = module_.functions[callee];
        std::vector<std::int32_t> cargs(cf.nargs);
        for (std::size_t i = cf.nargs; i > 0; --i) cargs[i - 1] = pop();
        const std::int32_t ret = call(callee, cargs, depth + 1);
        if (cf.returns_value) stack.push_back(ret);
        break;
      }
      case WOp::kHostCall: {
        const auto hi = static_cast<std::size_t>(ins.imm);
        if (hi >= hosts_.size()) throw WasmTrap("host import out of range");
        const HostImport& h = hosts_[hi];
        std::vector<std::int32_t> hargs(h.nargs);
        for (std::size_t i = h.nargs; i > 0; --i) hargs[i - 1] = pop();
        HostContext ctx{memory_};
        stack.push_back(h.fn(ctx, hargs));
        break;
      }
      case WOp::kRet:
        return fn.returns_value ? pop() : 0;
      case WOp::kDrop:
        pop();
        break;
      case WOp::kHalt:
        return stack.empty() ? 0 : stack.back();
    }
  }
}

}  // namespace vedliot::security
