// The MiniPy interpreter with a CPython-embedding-shaped API.
//
// Swift/T calls Python by linking libpython and running
//   PyRun_String(code); result = str(eval(expr));
// per task. MiniPy reproduces that surface: eval(code, expr) executes the
// statements in `code` in the interpreter's global scope, then evaluates
// the expression `expr` and returns its str(). Global state persists
// across eval calls until reset() — which is the retain-vs-reinitialize
// policy choice §III.C of the paper discusses.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "python/ast.h"
#include "python/value.h"

namespace ilps::py {

class Interpreter {
 public:
  Interpreter();
  ~Interpreter();

  // Executes `code`; then, if `expr` is nonempty, evaluates it and returns
  // str(result). Throws PyError on any Python-level error.
  std::string eval(const std::string& code, const std::string& expr = "");

  // Evaluates a single expression to a value.
  Ref eval_expr(const std::string& expr);

  // Clears all global state (Py_Finalize + Py_Initialize equivalent).
  void reset();

  // print() sink; defaults to stdout.
  void set_print_handler(std::function<void(const std::string& line)> fn);

  // Direct global access for embedding (PyDict_SetItemString analogue).
  void set_global(const std::string& name, Ref value);
  Ref get_global(const std::string& name);  // nullptr if missing

  uint64_t statements_executed() const { return statements_; }

  // Deterministic RNG backing the `random` module.
  Rng& rng() { return rng_; }

 private:
  friend class Evaluator;

  struct Frame {
    std::map<std::string, Ref> locals;
    std::vector<std::string> global_names;
  };

  void install_builtins();

  std::map<std::string, Ref> globals_;
  std::map<std::string, Ref> builtins_;
  std::vector<Frame> frames_;
  std::function<void(const std::string&)> print_;
  uint64_t statements_ = 0;
  int depth_ = 0;
  Rng rng_{0x9121};
};

// Installs the `math` and `random` module objects (called by the
// interpreter's builtin setup; exposed for tests).
Ref make_math_module();
Ref make_random_module(Rng& rng);

}  // namespace ilps::py
