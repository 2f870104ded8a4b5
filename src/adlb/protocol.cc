#include "adlb/protocol.h"

namespace ilps::adlb {

const char* data_type_name(DataType t) {
  switch (t) {
    case DataType::kVoid: return "void";
    case DataType::kInteger: return "integer";
    case DataType::kFloat: return "float";
    case DataType::kString: return "string";
    case DataType::kBlob: return "blob";
    case DataType::kContainer: return "container";
    case DataType::kFile: return "file";
  }
  return "?";
}

std::optional<DataType> data_type_from_name(std::string_view name) {
  if (name == "void") return DataType::kVoid;
  if (name == "integer") return DataType::kInteger;
  if (name == "float") return DataType::kFloat;
  if (name == "string") return DataType::kString;
  if (name == "blob") return DataType::kBlob;
  if (name == "container") return DataType::kContainer;
  if (name == "file") return DataType::kFile;
  return std::nullopt;
}

void write_work_unit(ser::Writer& w, const WorkUnit& unit) {
  w.put_i32(unit.type);
  w.put_i32(unit.priority);
  w.put_i32(unit.target);
  w.put_i32(unit.answer);
  w.put_str(unit.payload);
  w.put_i64(unit.id);
  w.put_i32(unit.attempts);
  w.put_i64(unit.order);
  w.put_i64(unit.req);
  w.put_i32(unit.owner);
  w.put_i64(unit.prog);
  w.put_u8(unit.flags);
}

WorkUnit read_work_unit(ser::Reader& r) {
  WorkUnit unit;
  unit.type = r.get_i32();
  unit.priority = r.get_i32();
  unit.target = r.get_i32();
  unit.answer = r.get_i32();
  unit.payload = r.get_str();
  unit.id = r.get_i64();
  unit.attempts = r.get_i32();
  unit.order = r.get_i64();
  unit.req = r.get_i64();
  unit.owner = r.get_i32();
  unit.prog = r.get_i64();
  unit.flags = r.get_u8();
  return unit;
}

}  // namespace ilps::adlb
