#include "vectordb/durable_index.h"

#include <utility>

#include "durability/format.h"
#include "durability/store.h"

namespace llmdm::vectordb {

DurableVectorIndex::DurableVectorIndex(const FlatIndex::Options& options)
    : options_(options), inner_(options) {}

common::Status DurableVectorIndex::Add(uint64_t id, Vector vector) {
  durability::MutationGuard guard = durable_ != nullptr
                                        ? durable_->BeginMutation()
                                        : durability::MutationGuard();
  // Log from the argument before the inner index consumes it by move.
  std::string rec;
  if (durable_ != nullptr) {
    durability::AppendU8(&rec, static_cast<uint8_t>(WalOp::kAdd));
    durability::AppendU64(&rec, id);
    durability::AppendFloats(&rec, vector);
  }
  LLMDM_RETURN_IF_ERROR(inner_.Add(id, std::move(vector)));
  if (durable_ != nullptr) durable_->Append(guard, rec).ok();
  return common::Status::Ok();
}

common::Status DurableVectorIndex::Remove(uint64_t id) {
  durability::MutationGuard guard = durable_ != nullptr
                                        ? durable_->BeginMutation()
                                        : durability::MutationGuard();
  LLMDM_RETURN_IF_ERROR(inner_.Remove(id));
  if (durable_ != nullptr) {
    std::string rec;
    durability::AppendU8(&rec, static_cast<uint8_t>(WalOp::kRemove));
    durability::AppendU64(&rec, id);
    durable_->Append(guard, rec).ok();
  }
  return common::Status::Ok();
}

void DurableVectorIndex::AttachDurability(durability::DurableStore* store) {
  durable_ = store;
}

void DurableVectorIndex::ResetToEmpty() { inner_ = FlatIndex(options_); }

common::Status DurableVectorIndex::SaveSnapshot(std::string* out) const {
  durability::AppendU64(out, inner_.Size());
  inner_.ForEach([out](uint64_t id, const Vector& vector) {
    durability::AppendU64(out, id);
    durability::AppendFloats(out, vector);
  });
  return common::Status::Ok();
}

common::Status DurableVectorIndex::LoadSnapshot(durability::ByteReader& in) {
  uint64_t count = 0;
  LLMDM_RETURN_IF_ERROR(in.ReadU64(&count));
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t id = 0;
    Vector vector;
    LLMDM_RETURN_IF_ERROR(in.ReadU64(&id));
    LLMDM_RETURN_IF_ERROR(in.ReadFloats(&vector));
    LLMDM_RETURN_IF_ERROR(inner_.Add(id, std::move(vector)));
  }
  return common::Status::Ok();
}

common::Status DurableVectorIndex::ApplyWalRecord(std::string_view payload) {
  durability::ByteReader in(payload);
  uint8_t op = 0;
  LLMDM_RETURN_IF_ERROR(in.ReadU8(&op));
  switch (static_cast<WalOp>(op)) {
    case WalOp::kAdd: {
      uint64_t id = 0;
      Vector vector;
      LLMDM_RETURN_IF_ERROR(in.ReadU64(&id));
      LLMDM_RETURN_IF_ERROR(in.ReadFloats(&vector));
      return inner_.Add(id, std::move(vector));
    }
    case WalOp::kRemove: {
      uint64_t id = 0;
      LLMDM_RETURN_IF_ERROR(in.ReadU64(&id));
      return inner_.Remove(id);
    }
  }
  return common::Status::InvalidArgument("unknown index WAL op " +
                                         std::to_string(op));
}

}  // namespace llmdm::vectordb
