// Message and addressing types shared by the network substrate and the
// protocol layers above it.
//
// The payload is a closed variant over the concrete protocol structs
// (core/, central/, hierarchy/) rather than a type-erased std::any: the
// set of messages the managers exchange is fixed by the wire codec, so
// an open payload type bought nothing except one heap allocation per
// send (std::any's alternatives are all larger than its inline buffer)
// and an RTTI-based dispatch per as<T>(). The variant stores every
// alternative inline (32 bytes including the discriminant), is
// trivially copyable — so a whole Message moves by memcpy inside the
// delivery event that carries it — and as<T>() compiles down to an
// index compare. See DESIGN.md §11.
#pragma once

#include <cstdint>
#include <variant>

#include "central/protocol.hpp"
#include "common/units.hpp"
#include "core/protocol.hpp"
#include "hierarchy/protocol.hpp"

namespace penelope::net {

using NodeId = std::int32_t;
inline constexpr NodeId kNoNode = -1;

/// Every payload a Message can carry: the eleven wire-codec message
/// types, plus monostate for a default-constructed (empty) Message.
/// Keep the alternative order in sync with WireTag (codec.hpp) — the
/// codec round-trip test pins both.
using Payload =
    std::variant<std::monostate, core::PowerRequest, core::PowerGrant,
                 central::CentralDonation, central::CentralRequest,
                 central::CentralGrant, hierarchy::ProfileReport,
                 hierarchy::CapAssignment, core::PowerPush,
                 core::Heartbeat, hierarchy::FederatedRequest,
                 hierarchy::FederatedTransfer>;

static_assert(std::is_trivially_copyable_v<Payload>,
              "Payload must stay trivially copyable: the fabric relies "
              "on memcpy moves for zero-allocation delivery");

struct Message {
  NodeId src = kNoNode;
  NodeId dst = kNoNode;
  std::uint64_t id = 0;           ///< unique per network instance
  common::Ticks sent_at = 0;      ///< virtual time the send was issued
  bool duplicate = false;         ///< fabric-injected extra copy (same id)
  /// Wire-corruption marker: 0 = clean, otherwise 1 + the index of the
  /// frame bit the corruption nemesis flips at delivery. The flip is
  /// applied to the real encoded frame and fed through decode_checked,
  /// so corruption exercises the production codec path, not a shortcut.
  std::uint32_t corrupt = 0;
  Payload payload;

  /// Typed payload access; returns nullptr if the payload holds a
  /// different type.
  template <typename T>
  const T* as() const {
    return std::get_if<T>(&payload);
  }
};

static_assert(std::is_trivially_copyable_v<Message>,
              "Message must stay trivially copyable (it rides inside "
              "delivery events, which move by memcpy)");

}  // namespace penelope::net
