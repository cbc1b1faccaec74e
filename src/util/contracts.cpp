#include "util/contracts.h"

#include <atomic>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace surfnet::util {

namespace {

// The handler is process-global (contract failures are fatal events, not
// per-thread policy); atomic so TSan-clean when tests install handlers
// while worker threads run.
std::atomic<ContractHandler> g_handler{nullptr};

[[noreturn]] void default_handler(const ContractFailure& failure) {
  // Goes straight to stderr, not through obs: a contract failure must be
  // reportable even when no observability session exists, and the process
  // is about to die.
  std::fprintf(stderr, "surfnet: %s\n",
               format_contract_failure(failure).c_str());
  std::fflush(stderr);
  std::abort();
}

[[noreturn]] void dispatch(const ContractFailure& failure) {
  ContractHandler handler = g_handler.load(std::memory_order_acquire);
  if (handler != nullptr) handler(failure);
  // Either no handler was installed or the installed one returned: a
  // violated contract never continues execution.
  default_handler(failure);
}

}  // namespace

std::string format_contract_failure(const ContractFailure& failure) {
  std::string out;
  out += failure.file;
  out += ':';
  out += std::to_string(failure.line);
  out += ": ";
  out += failure.kind;
  out += " failed: ";
  out += failure.expression;
  if (!failure.message.empty()) {
    out += " (";
    out += failure.message;
    out += ')';
  }
  return out;
}

ContractHandler set_contract_handler(ContractHandler handler) {
  return g_handler.exchange(handler, std::memory_order_acq_rel);
}

void throw_contract_violation(const ContractFailure& failure) {
  throw ContractViolation(failure);
}

void contract_fail(const char* kind, const char* expression, const char* file,
                   int line) {
  ContractFailure failure;
  failure.kind = kind;
  failure.expression = expression;
  failure.file = file;
  failure.line = line;
  dispatch(failure);
}

void contract_fail(const char* kind, const char* expression, const char* file,
                   int line, const char* format, ...) {
  ContractFailure failure;
  failure.kind = kind;
  failure.expression = expression;
  failure.file = file;
  failure.line = line;
  char buf[512];
  std::va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof buf, format, args);
  va_end(args);
  failure.message = buf;
  dispatch(failure);
}

}  // namespace surfnet::util
