#include "src/correctables/operation.h"

#include <sstream>
#include <utility>

namespace icg {

const char* OpTypeName(OpType type) {
  switch (type) {
    case OpType::kGet:
      return "GET";
    case OpType::kMultiGet:
      return "MULTIGET";
    case OpType::kPut:
      return "PUT";
    case OpType::kMultiPut:
      return "MULTIPUT";
    case OpType::kEnqueue:
      return "ENQUEUE";
    case OpType::kDequeue:
      return "DEQUEUE";
    case OpType::kPeek:
      return "PEEK";
  }
  return "?";
}

namespace {

Operation MakeOp(OpType type, std::string key, std::string value = {}) {
  Operation op;
  op.type = type;
  op.key = std::move(key);
  op.value = std::move(value);
  return op;
}

}  // namespace

Operation Operation::Get(std::string key) { return MakeOp(OpType::kGet, std::move(key)); }
Operation Operation::MultiGet(std::vector<std::string> keys) {
  Operation op;
  op.type = OpType::kMultiGet;
  op.keys = std::move(keys);
  return op;
}
Operation Operation::Put(std::string key, std::string value) {
  return MakeOp(OpType::kPut, std::move(key), std::move(value));
}
Operation Operation::MultiPut(std::vector<std::string> keys, std::vector<std::string> values) {
  Operation op;
  op.type = OpType::kMultiPut;
  op.keys = std::move(keys);
  op.values = std::move(values);
  return op;
}
Operation Operation::Enqueue(std::string queue, std::string element) {
  return MakeOp(OpType::kEnqueue, std::move(queue), std::move(element));
}
Operation Operation::Dequeue(std::string queue) {
  return MakeOp(OpType::kDequeue, std::move(queue));
}
Operation Operation::Peek(std::string queue) { return MakeOp(OpType::kPeek, std::move(queue)); }

OpResult BatchResult(std::vector<OpResult> entries) {
  OpResult batch;
  batch.found = true;
  batch.seqno = 0;
  for (const OpResult& entry : entries) {
    if (!entry.found) {
      batch.found = false;
      continue;
    }
    batch.seqno++;
    if (batch.version < entry.version) {
      batch.version = entry.version;
    }
  }
  batch.entries = std::move(entries);
  return batch;
}

std::string Operation::ToString() const {
  std::ostringstream os;
  os << OpTypeName(type) << "(" << key;
  if (!value.empty()) {
    os << ", " << value.size() << "B";
  }
  os << ")";
  return os.str();
}

int64_t OpResult::WireBytes() const {
  int64_t bytes = kResponseHeaderBytes + static_cast<int64_t>(value.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    bytes += static_cast<int64_t>(entries[i].value.size()) + (i > 0 ? 1 : 0);  // separator
  }
  return bytes;
}

std::string OpResult::ToString() const {
  std::ostringstream os;
  if (!found) {
    return "(not found)";
  }
  os << "{" << WireBytes() - kResponseHeaderBytes << "B";
  if (seqno >= 0) {
    os << " seq=" << seqno;
  }
  os << " " << icg::ToString(version) << "}";
  return os.str();
}

}  // namespace icg
