#include "core/replay_stream.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace r4ncl::core {

ReplayStream::ReplayStream(const ShardedReplayEngine& engine, std::vector<std::size_t> drawn,
                           std::size_t minibatch, snn::SpikeOpStats* stats)
    : engine_(&engine), drawn_(std::move(drawn)), minibatch_(minibatch), stats_(stats) {
  R4NCL_CHECK(minibatch_ > 0, "minibatch must be positive");
  pool_.resize(std::min(minibatch_, std::max<std::size_t>(drawn_.size(), 1)));
}

std::int32_t ReplayStream::label(std::size_t i) const {
  R4NCL_CHECK(i < drawn_.size(), "draw ordinal " << i << " out of " << drawn_.size());
  return engine_->label_at(drawn_[i]);
}

void ReplayStream::decode_to_slot(std::size_t slot, std::size_t ordinal) {
  engine_->decompress_into(drawn_[ordinal], pool_[slot], stats_, &levels_scratch_);
  ++decoded_;
}

void ReplayStream::note_assembly_bytes(std::size_t live_slots) noexcept {
  // All rasters in an engine share one geometry, so the scratch footprint is
  // live slots × (T × C) decoded bytes plus the sub-byte level scratch.
  const std::size_t raster_bytes =
      engine_->activation_timesteps() * engine_->channels();
  const std::size_t bytes = live_slots * raster_bytes + levels_scratch_.capacity();
  peak_bytes_ = std::max(peak_bytes_, bytes);
}

std::span<const data::Sample> ReplayStream::next() {
  if (done()) return {};
  const std::size_t count = std::min(minibatch_, drawn_.size() - cursor_);
  for (std::size_t b = 0; b < count; ++b) decode_to_slot(b, cursor_ + b);
  cursor_ += count;
  note_assembly_bytes(count);
  return {pool_.data(), count};
}

const data::Sample& ReplayStream::fetch(std::size_t i) {
  R4NCL_CHECK(i < drawn_.size(), "draw ordinal " << i << " out of " << drawn_.size());
  decode_to_slot(0, i);
  note_assembly_bytes(1);
  return pool_[0];
}

}  // namespace r4ncl::core
