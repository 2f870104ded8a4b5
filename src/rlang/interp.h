// The MiniR interpreter with a libR-embedding-shaped API.
//
// Swift/T calls R through the embedded library (Rf_initEmbeddedR /
// R_ParseVector / Rf_eval): evaluate a code fragment, then evaluate one
// result expression and read it back as a string. MiniR mirrors that:
// eval(code) runs statements in the global environment and returns the
// last value's display form; eval(code, expr) additionally evaluates
// `expr` and returns toString() of the result. Global state persists
// until reset() — the paper's retain-vs-reinitialize policy.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "common/rng.h"
#include "rlang/ast.h"
#include "rlang/value.h"

namespace ilps::r {

class Interpreter {
 public:
  Interpreter();
  ~Interpreter();

  // Evaluates code; returns the deparsed value of the last expression.
  std::string eval(const std::string& code);

  // Swift/T convention: run `code`, then evaluate `expr` and return the
  // result as a flat string (elements joined by ","), e.g. "1,2,3".
  std::string eval(const std::string& code, const std::string& expr);

  // Evaluates and returns the value of the last expression.
  RRef eval_value(const std::string& code);

  // Clears all global state and reinstalls the base library.
  void reset();

  // Sink for cat()/print() output; defaults to stdout.
  void set_output_handler(std::function<void(const std::string&)> fn);

  void set_global(const std::string& name, RRef value);
  RRef get_global(const std::string& name);  // nullptr if unbound

  uint64_t expressions_evaluated() const { return count_; }
  Rng& rng() { return rng_; }
  EnvRef global_env() { return global_; }

 private:
  friend class REvaluator;
  void install_base();
  // Closures and the environments that hold them form reference cycles
  // (an R implementation detail normally hidden by R's garbage collector).
  // Every environment created for a call is tracked weakly; reset() and
  // the destructor clear surviving environments' bindings, breaking all
  // cycles so shared_ptr reclamation completes.
  void register_env(const EnvRef& env);
  void break_env_cycles();

  EnvRef global_;
  std::function<void(const std::string&)> out_;
  uint64_t count_ = 0;
  int depth_ = 0;
  Rng rng_{0x5EED};
  std::vector<std::weak_ptr<Environment>> envs_;
};

// Bridges for builtins.cc: invoke a closure or builtin value, and signal a
// return() from inside a closure body.
RRef call_r_function(Interpreter& in, const RRef& fn, std::vector<NamedArg>& args);
[[noreturn]] void throw_r_return(RRef value);

}  // namespace ilps::r
