#include "src/apps/ref_fetch.h"

#include <charconv>
#include <memory>
#include <utility>

namespace icg {

RefFetcher::RefFetcher(CorrectableClient* client, std::string object_key_prefix)
    : client_(client), object_key_prefix_(std::move(object_key_prefix)) {}

std::vector<int64_t> RefFetcher::ParseRefs(const std::string& csv) {
  std::vector<int64_t> refs;
  size_t pos = 0;
  while (pos < csv.size()) {
    size_t comma = csv.find(',', pos);
    if (comma == std::string::npos) {
      comma = csv.size();
    }
    if (comma > pos) {
      refs.push_back(std::stoll(csv.substr(pos, comma - pos)));
    }
    pos = comma + 1;
  }
  return refs;
}

std::string RefFetcher::JoinRefs(const std::vector<int64_t>& refs) {
  // Room for every id at its longest (a sign and 19 digits) and a comma after it.
  std::string out(refs.size() * 21, '\0');
  char* at = out.data();
  for (size_t i = 0; i < refs.size(); ++i) {
    if (i > 0) {
      *at++ = ',';
    }
    at = std::to_chars(at, out.data() + out.size(), refs[i]).ptr;
  }
  out.resize(static_cast<size_t>(at - out.data()));
  return out;
}

Correctable<OpResult> RefFetcher::FetchObjects(const OpResult& refs) {
  const std::vector<int64_t> ids = refs.found ? ParseRefs(refs.value) : std::vector<int64_t>{};
  if (ids.empty()) {
    // Nothing referenced (an absent, empty or id-less list such as ","): no multiget.
    return Correctable<OpResult>::FromValue(OpResult{});
  }
  std::vector<std::string> keys;
  keys.reserve(ids.size());
  for (const int64_t id : ids) {
    keys.push_back(object_key_prefix_ + std::to_string(id));
  }
  // One batched strong read, exactly like the paper's getAds: "The second storage access
  // is hidden inside getAds; this is a read with R = 2, incurring no extra cost" — only
  // step 1 uses ICG.
  return client_->InvokeStrong(Operation::MultiGet(std::move(keys)));
}

void RefFetcher::Fetch(const std::string& ref_key, bool use_icg,
                       std::function<void(RefFetchOutcome)> done) {
  EventLoop* loop = client_->loop();
  const SimTime start = loop != nullptr ? loop->Now() : 0;
  auto outcome = std::make_shared<RefFetchOutcome>();
  auto now = [loop, start]() { return loop != nullptr ? loop->Now() - start : 0; };

  auto finish_ok = [outcome, done, now](const View<OpResult>& v) {
    outcome->ok = true;
    outcome->objects = static_cast<size_t>(std::max<int64_t>(v.value.seqno, 0));
    outcome->latency = now();
    done(*outcome);
  };
  auto finish_err = [outcome, done, now](const Status&) {
    outcome->ok = false;
    outcome->latency = now();
    done(*outcome);
  };

  if (!use_icg) {
    // Baseline: two sequential strong reads (fetch references, then fetch objects).
    client_->InvokeStrong(Operation::Get(ref_key))
        .SetCallbacks(nullptr,
                      [this, outcome, finish_ok, finish_err](const View<OpResult>& refs) {
                        FetchObjects(refs.value)
                            .SetCallbacks(nullptr, finish_ok, finish_err);
                      },
                      finish_err);
    return;
  }

  auto refs = client_->Invoke(Operation::Get(ref_key));
  refs.OnUpdate([outcome, now](const View<OpResult>&) {
    if (!outcome->preliminary_latency.has_value()) {
      outcome->preliminary_latency = now();
      outcome->speculated = true;
    }
  });
  refs.Speculate([this](const OpResult& r) { return FetchObjects(r); },
                 [outcome](const OpResult&) { outcome->misspeculated = true; })
      .SetCallbacks(nullptr, finish_ok, finish_err);
}

}  // namespace icg
