// Contract and invariant layer.
//
// Three macro families, all throwing erapid::ModelInvariantError with a
// rich diagnostic (kind, stringified condition, file:line, function, and a
// streamed message) so tests can assert on violations and long batch runs
// fail loudly instead of silently corrupting statistics:
//
//   ERAPID_REQUIRE(cond, msg)    precondition on a public API — the caller
//                                handed us an argument or drove a state
//                                machine outside its domain.
//   ERAPID_INVARIANT(cond, msg)  internal model invariant — if this fires
//                                the *model* is wrong (conservation,
//                                monotonicity, bijection properties).
//   ERAPID_UNREACHABLE(msg)      control flow that must be dead: the
//                                fallthrough of an exhaustive enum switch,
//                                the else of a total classification. Always
//                                active (an unmodeled message value must
//                                never be processed silently).
//
// The message argument supports stream syntax:
//
//   ERAPID_REQUIRE(when >= now_, "when=" << when << " now=" << now_);
//
// Every check is active in every build type. ERAPID_EXPECT also guards
// input validation — config parsing, file I/O — which is error handling,
// not a contract.
#pragma once

#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

namespace erapid {

/// Thrown when a simulator model invariant or API contract is violated.
class ModelInvariantError : public std::logic_error {
 public:
  explicit ModelInvariantError(const std::string& what) : std::logic_error(what) {}
};

/// Called with (kind, full diagnostic) immediately before a contract failure
/// throws — the flight recorder's last-gasp hook.
using ContractObserver = std::function<void(const char* kind, const std::string& what)>;

namespace detail {

inline ContractObserver& contract_observer_slot() {
  static thread_local ContractObserver slot;
  return slot;
}

inline bool& contract_observer_busy() {
  static thread_local bool busy = false;
  return busy;
}

[[noreturn]] inline void throw_contract(const char* kind, const char* expr, const char* file,
                                        int line, const char* func, const std::string& msg) {
  std::ostringstream os;
  os << kind << ": (" << expr << ") in " << func << " at " << file << ":" << line;
  if (!msg.empty()) os << " — " << msg;
  // Give the observer its one look before the throw unwinds the run. The
  // busy guard makes a contract failure *inside* the observer non-recursive,
  // and observer exceptions are swallowed: the original diagnostic wins.
  auto& obs = contract_observer_slot();
  if (obs && !contract_observer_busy()) {
    contract_observer_busy() = true;
    try {
      obs(kind, os.str());
    } catch (...) {  // NOLINT(bugprone-empty-catch)
    }
    contract_observer_busy() = false;
  }
  throw ModelInvariantError(os.str());
}

}  // namespace detail

/// Installs (or clears, with {}) the thread-local contract-failure observer.
inline void set_contract_observer(ContractObserver obs) {
  detail::contract_observer_slot() = std::move(obs);
}

}  // namespace erapid

/// Builds a std::string from a stream-style message fragment.
#define ERAPID_DETAIL_MSG(msg)      \
  ([&]() -> std::string {           \
    std::ostringstream erapid_os_;  \
    erapid_os_ << msg;              \
    return erapid_os_.str();        \
  }())

#define ERAPID_DETAIL_CHECK(kind, cond, msg)                                        \
  do {                                                                              \
    if (!(cond)) {                                                                  \
      ::erapid::detail::throw_contract(kind, #cond, __FILE__, __LINE__,             \
                                       static_cast<const char*>(__func__),          \
                                       ERAPID_DETAIL_MSG(msg));                     \
    }                                                                               \
  } while (false)

/// Legacy check macro: input validation and model invariants that must hold
/// regardless of build type. Active in every configuration.
#define ERAPID_EXPECT(cond, msg) ERAPID_DETAIL_CHECK("model invariant violated", cond, msg)

/// Unreachable control flow; always active.
#define ERAPID_UNREACHABLE(msg)                                                       \
  ::erapid::detail::throw_contract("unreachable code reached", "false", __FILE__,     \
                                   __LINE__, static_cast<const char*>(__func__),      \
                                   ERAPID_DETAIL_MSG(msg))

/// Precondition on a public API entry point.
#define ERAPID_REQUIRE(cond, msg) ERAPID_DETAIL_CHECK("precondition violated", cond, msg)
/// Internal model invariant (conservation, monotonicity, bijection).
#define ERAPID_INVARIANT(cond, msg) ERAPID_DETAIL_CHECK("invariant violated", cond, msg)
