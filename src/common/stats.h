// Stat structs declared once. Each layer lists its counters in one X-macro
// field list; ILPS_STAT_MEMBERS expands that list into the uint64_t fields,
// a field-wise operator+= (how per-rank stats sum into a run total), and
// for_each(f), which visits f(name, value) in declaration order (how the
// run total is published as "<kMetricPrefix><name>" metrics). Adding a
// counter is one edit to the field list.
//
//   #define ILPS_FOO_STATS(X) X(hits) X(misses) /* comment */
//   struct FooStats {
//     ILPS_STAT_MEMBERS(FooStats, "foo.", ILPS_FOO_STATS)
//   };
#pragma once

#include <cstdint>
#include <string_view>

#define ILPS_STAT_FIELD_(name) uint64_t name = 0;
#define ILPS_STAT_ADD_(name) name += o.name;
#define ILPS_STAT_VISIT_(name) f(std::string_view(#name), name);

#define ILPS_STAT_MEMBERS(Struct, prefix, FIELDS)              \
  FIELDS(ILPS_STAT_FIELD_)                                     \
  static constexpr std::string_view kMetricPrefix = prefix;    \
  Struct& operator+=(const Struct& o) {                        \
    FIELDS(ILPS_STAT_ADD_)                                     \
    return *this;                                              \
  }                                                            \
  template <typename F>                                        \
  void for_each(F&& f) const {                                 \
    FIELDS(ILPS_STAT_VISIT_)                                   \
  }
