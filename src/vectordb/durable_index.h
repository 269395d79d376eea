#ifndef LLMDM_VECTORDB_DURABLE_INDEX_H_
#define LLMDM_VECTORDB_DURABLE_INDEX_H_

#include <string_view>

#include "durability/durable.h"
#include "vectordb/flat_index.h"

namespace llmdm::durability {
class DurableStore;
}  // namespace llmdm::durability

namespace llmdm::vectordb {

/// A FlatIndex with durable state: logs every Add/Remove as a physical WAL
/// record once a DurableStore is attached.
///
/// The durable image is the vector set — the sorted live (id, vector)
/// pairs. Int8 codes (FlatIndex::Options::quantize) are derived state:
/// recovery re-quantizes from the float vectors, so the snapshot/WAL format
/// does not depend on the option.
class DurableVectorIndex : public durability::DurableState {
 public:
  explicit DurableVectorIndex(const FlatIndex::Options& options);

  // Not internally synchronized (same contract as FlatIndex — callers own
  // the locking); mutations are logged under the attached store's commit
  // gate.
  common::Status Add(uint64_t id, Vector vector);
  common::Status Remove(uint64_t id);
  bool Contains(uint64_t id) const { return inner_.Contains(id); }
  size_t Size() const { return inner_.Size(); }
  std::vector<SearchResult> Search(const Vector& query, size_t k) const {
    return inner_.Search(query, k);
  }
  void ForEach(const std::function<void(uint64_t, const Vector&)>& fn) const {
    inner_.ForEach(fn);
  }

  /// See SemanticCache::AttachDurability for the setup contract.
  void AttachDurability(durability::DurableStore* store);

  // DurableState.
  void ResetToEmpty() override;
  common::Status SaveSnapshot(std::string* out) const override;
  common::Status LoadSnapshot(durability::ByteReader& in) override;
  common::Status ApplyWalRecord(std::string_view payload) override;

 private:
  enum class WalOp : uint8_t {
    kAdd = 1,     // id, floats -> insert/replace
    kRemove = 2,  // id         -> delete
  };

  FlatIndex::Options options_;
  FlatIndex inner_;
  durability::DurableStore* durable_ = nullptr;  // not owned; may be null
};

}  // namespace llmdm::vectordb

#endif  // LLMDM_VECTORDB_DURABLE_INDEX_H_
