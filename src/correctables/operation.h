// Storage-agnostic operation descriptors passed from the client library to bindings.
//
// Applications build Operations with the factory helpers; bindings translate them into
// storage-specific protocols. A single tagged struct (rather than per-store templates)
// keeps the API surface "thin and consistency-based" as the paper advocates: the
// operation says *what*, the binding decides *how*.
#ifndef ICG_CORRECTABLES_OPERATION_H_
#define ICG_CORRECTABLES_OPERATION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/types.h"

namespace icg {

enum class OpType : uint8_t {
  kGet,       // read value at key
  kMultiGet,  // read several keys in one request (batched, e.g. fetching all ads)
  kPut,       // write value at key
  kMultiPut,  // apply several writes in one request, in order (cross-tick write batching)
  kEnqueue,   // append element to the queue named by key
  kDequeue,   // remove and return the queue head
  kPeek,      // read the queue head without removing
};

const char* OpTypeName(OpType type);

struct Operation {
  OpType type = OpType::kGet;
  std::string key;    // record key, or queue name for queue operations
  std::string value;  // put payload / enqueue element; empty otherwise
  std::vector<std::string> keys;    // kMultiGet / kMultiPut
  std::vector<std::string> values;  // kMultiPut only; parallel to `keys`, applied in order
  // Client-assigned LWW timestamp of a kPut (0 = unassigned: the coordinator stamps at
  // apply time, the legacy behaviour). The pipeline stamps every write at submission
  // with a per-client monotone clock, so one writer's same-key writes keep their program
  // order even when a live rebalance hands the key to a different coordinator mid-stream
  // (coordinator apply-time stamps would invert across the handoff whenever the old
  // coordinator's queue drains later than the new one's).
  SimTime timestamp = 0;
  std::vector<SimTime> timestamps;  // kMultiPut: per-entry stamps, parallel to `keys`

  static Operation Get(std::string key);
  static Operation MultiGet(std::vector<std::string> keys);
  static Operation Put(std::string key, std::string value);
  // `keys` and `values` must be the same length; entries apply in vector order, so two
  // writes to the same key keep their program order inside the batch.
  static Operation MultiPut(std::vector<std::string> keys, std::vector<std::string> values);
  static Operation Enqueue(std::string queue, std::string element);
  static Operation Dequeue(std::string queue);
  static Operation Peek(std::string queue);

  bool IsRead() const {
    return type == OpType::kGet || type == OpType::kMultiGet || type == OpType::kPeek;
  }
  bool IsQueueOp() const {
    return type == OpType::kEnqueue || type == OpType::kDequeue || type == OpType::kPeek;
  }

  std::string ToString() const;
};

// The result of an operation as observed under some consistency level.
struct OpResult {
  bool found = false;  // key existed / queue non-empty
  std::string value;   // read value or dequeued element
  // Queue element sequence number (ticket position); -1 for key-value results. For a
  // dequeue preliminary view this is the observed head position, which the ticket app
  // uses as the remaining-stock estimate. A batched result counts its entries found.
  int64_t seqno = -1;
  // Version of the value (key-value stores); default for queue results.
  Version version{};
  // Per-key results of a kMultiGet / kMultiPut, one per requested key in request order;
  // empty for every other operation. A read's entry is what a lone kGet of its key
  // returns ({found, value, version}); a write's entry acknowledges that write
  // ({found: true, version}). Values may hold any byte. Build with BatchResult.
  std::vector<OpResult> entries;

  friend bool operator==(const OpResult&, const OpResult&) = default;

  // Approximate wire size of a response carrying this result: the header plus the
  // payload. A batched payload is the entries' values with one separator byte between
  // consecutive entries.
  int64_t WireBytes() const;

  std::string ToString() const;
};

// The one constructor of a batched result: `found` = every entry found (true for no
// entries), `seqno` = the number of entries found, `version` = the freshest entry's.
OpResult BatchResult(std::vector<OpResult> entries);

// Wire-size constants shared by the simulated protocols. The paper reports ~270 B for a
// ZooKeeper enqueue request+response pair and ~130 B for the extra preliminary response;
// these headers make those magnitudes come out naturally.
inline constexpr int64_t kRequestHeaderBytes = 48;
inline constexpr int64_t kResponseHeaderBytes = 40;
inline constexpr int64_t kConfirmationBytes = 24;  // digest-only final (§5.2)

}  // namespace icg

#endif  // ICG_CORRECTABLES_OPERATION_H_
