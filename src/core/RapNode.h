//===- core/RapNode.h - Node of a range adaptive profile tree -*- C++ -*-===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A node of the RAP tree. Each node tracks a power-of-two aligned
/// range [lo(), hi()] of the event universe and a counter of the events
/// that matched this node as their smallest covering range (Sec 2.1 of
/// the paper). Children subdivide the parent range; after internal
/// merges the children may cover only part of the parent (Sec 3.3).
///
/// Storage is a slab arena (detail::NodeArena) rather than one heap
/// allocation per node: all node fields live in structure-of-arrays
/// vectors indexed by a 32-bit node id, and the children of a split
/// node occupy one contiguous block of ids. The update path therefore
/// descends by loading one packed navigation word per level — no
/// pointer chasing, and child selection is a branchless shift-and-mask
/// because every node range is aligned to its own width. RapNode is a
/// small value handle (arena pointer + id) that the tree mints on
/// demand: root(), findSmallestCover() and child() return it by value,
/// so the arena keeps no per-slot handle storage. The arena also
/// carries a subtree-sum column, refreshed by the tree's whole-tree
/// walks (merges, absorb, restore), from which subtreeWeight() answers
/// in O(1) while it is fresh.
///
//===----------------------------------------------------------------------===//

#ifndef RAP_CORE_RAPNODE_H
#define RAP_CORE_RAPNODE_H

#include "support/BitUtils.h"

#include <cassert>
#include <cstdint>
#include <optional>
#include <vector>

namespace rap {

class RapTree;

namespace detail {
struct NodeArena;
} // namespace detail

/// One range-counter of the profile tree. A lightweight value handle
/// into the owning tree's node arena; copying it does not copy the
/// node. A handle stays usable while its tree lives, but it names an
/// arena slot, so after a merge or split it may describe a different
/// range: re-read handles after updating the tree.
class RapNode {
  friend class RapTree;

public:
  /// Internal: binds a handle to arena slot \p NodeIndex. User code
  /// receives handles from RapTree::root(), child() and
  /// findSmallestCover().
  RapNode(const detail::NodeArena *ArenaPtr, uint32_t NodeIndex)
      : Arena(ArenaPtr), Index(NodeIndex) {}

  /// Lowest value covered by this node.
  uint64_t lo() const;

  /// Highest value covered by this node (inclusive).
  uint64_t hi() const;

  /// log2 of the number of values this node covers.
  unsigned widthBits() const;

  /// Events recorded on this node's own counter (excludes descendants).
  uint64_t count() const;

  /// True if this node covers a single value and can never split.
  bool isUnitRange() const { return widthBits() == 0; }

  /// True if \p X lies within this node's range.
  bool contains(uint64_t X) const { return X >= lo() && X <= hi(); }

  /// True if the node currently has a child block (it may still have
  /// empty slots after internal merges).
  bool hasChildren() const;

  /// Number of child slots (0 if the node has never split or has been
  /// fully merged back into a leaf).
  unsigned numChildSlots() const;

  /// Child at \p Slot, or empty if that sub-range is currently merged
  /// into this node.
  std::optional<RapNode> child(unsigned Slot) const;

  /// Total weight of this node plus all descendants. This is the RAP
  /// estimate for the number of stream events in [lo(), hi()]; it is
  /// always a lower bound on the true count (Sec 4.3). Saturates at
  /// 2^64-1 like the counters themselves. O(1) from the subtree-sum
  /// column while it is fresh (after a merge pass, absorb or restore
  /// and before the next update); otherwise a walk of the subtree.
  uint64_t subtreeWeight() const;

  /// Number of nodes in this subtree including this node.
  uint64_t subtreeNodeCount() const;

private:
  const detail::NodeArena *Arena;
  uint32_t Index;
};

namespace detail {

/// Slab storage for every node of one tree, structure-of-arrays.
///
/// Node ids are 32-bit indices into five parallel vectors. The children
/// of a split node are one contiguous id block, so locating the child
/// covering X needs only the parent's packed navigation word:
///
///   bits  0..31  first child id (InvalidIndex when the node is a leaf)
///   bits 32..39  child width in bits (the shift selecting the slot)
///   bits 40..45  log2 of the child slot count
///   bit  63      dead flag: this slot was merged back into its parent
///
/// Because a node's lo() is aligned to its width, the child slot for X
/// is (X >> childShift) & slotMask with no subtraction — the branchless
/// select of the hot descend loop. Freed child blocks (from batched
/// merges) are recycled through per-size free lists; a merged-back
/// child inside a still-live block is only flagged dead so a later
/// re-split revives it in place.
struct NodeArena {
  static constexpr uint32_t InvalidIndex = 0xffffffffu;
  static constexpr uint64_t DeadBit = uint64_t(1) << 63;
  static constexpr uint64_t LeafNav = InvalidIndex;
  static constexpr uint64_t DeadLeafNav = LeafNav | DeadBit;

  std::vector<uint64_t> Los;    ///< lo() per node.
  std::vector<uint64_t> Counts; ///< own counter per node.
  std::vector<uint64_t> Navs;   ///< packed navigation word per node.
  std::vector<uint8_t> Widths;  ///< widthBits() per node.
  /// Saturating subtree weight per node. Never maintained on update:
  /// RapTree recomputes it in the post-order walk that follows every
  /// merge pass, absorb and restore, and reads it only while
  /// SumsFresh says every live slot holds its exact subtree weight.
  std::vector<uint64_t> Sums;
  /// True while Sums is exact for every live node; cleared by any
  /// counter move (addPoint, absorb's union).
  bool SumsFresh = false;

  /// Recycled child blocks, indexed by log2 of the block's slot count.
  std::vector<std::vector<uint32_t>> FreeBlocks;

  static uint32_t navFirstChild(uint64_t Nav) {
    return static_cast<uint32_t>(Nav);
  }
  static unsigned navChildShift(uint64_t Nav) {
    return static_cast<unsigned>((Nav >> 32) & 0xff);
  }
  static unsigned navSlotLog2(uint64_t Nav) {
    return static_cast<unsigned>((Nav >> 40) & 0x3f);
  }
  static bool navIsDead(uint64_t Nav) { return (Nav & DeadBit) != 0; }
  static bool navIsLeaf(uint64_t Nav) {
    return navFirstChild(Nav) == InvalidIndex;
  }
  static uint64_t makeNav(uint32_t FirstChild, unsigned ChildShift,
                          unsigned SlotLog2) {
    return uint64_t(FirstChild) | (uint64_t(ChildShift) << 32) |
           (uint64_t(SlotLog2) << 40);
  }

  /// Creates the root node (id 0) covering [0, 2^RangeBits).
  void initRoot(unsigned RangeBits);

  /// Allocates a contiguous child block for \p Parent: 2^SlotLog2
  /// slots of width \p ChildBits, each initialized as a zero-count
  /// leaf (dead when \p Dead, i.e. present-but-merged). Updates the
  /// parent's navigation word and returns the first child id.
  uint32_t allocChildren(uint32_t Parent, unsigned ChildBits,
                         unsigned SlotLog2, bool Dead);

  /// Returns a 2^SlotLog2-slot block to the free list. Never throws:
  /// it runs inside merge folds after counters have already moved, so
  /// on allocation failure the block record is dropped (the slots
  /// stay parked in the arena) rather than tearing the fold.
  void freeBlock(uint32_t FirstChild, unsigned SlotLog2) noexcept;

  /// Marks \p Node dead and recycles every child block beneath it.
  /// Never throws (see freeBlock).
  void killSubtree(uint32_t Node) noexcept;

  uint64_t subtreeWeight(uint32_t Node) const {
    return SumsFresh ? Sums[Node] : walkSubtreeWeight(Node);
  }
  /// subtreeWeight by recursion over the counters, ignoring Sums.
  uint64_t walkSubtreeWeight(uint32_t Node) const;
  uint64_t subtreeNodeCount(uint32_t Node) const;

private:
  uint32_t allocBlock(unsigned SlotLog2);
  void freeDescendants(uint32_t Node) noexcept;
};

} // namespace detail

inline uint64_t RapNode::lo() const { return Arena->Los[Index]; }

inline uint64_t RapNode::hi() const {
  unsigned Width = Arena->Widths[Index];
  if (Width == 64)
    return ~uint64_t(0);
  return Arena->Los[Index] + ((uint64_t(1) << Width) - 1);
}

inline unsigned RapNode::widthBits() const { return Arena->Widths[Index]; }

inline uint64_t RapNode::count() const { return Arena->Counts[Index]; }

inline bool RapNode::hasChildren() const {
  return !detail::NodeArena::navIsLeaf(Arena->Navs[Index]);
}

inline unsigned RapNode::numChildSlots() const {
  uint64_t Nav = Arena->Navs[Index];
  if (detail::NodeArena::navIsLeaf(Nav))
    return 0;
  return 1u << detail::NodeArena::navSlotLog2(Nav);
}

inline std::optional<RapNode> RapNode::child(unsigned Slot) const {
  uint64_t Nav = Arena->Navs[Index];
  assert(Slot < numChildSlots() && "child slot out of range");
  uint32_t Child = detail::NodeArena::navFirstChild(Nav) + Slot;
  if (detail::NodeArena::navIsDead(Arena->Navs[Child]))
    return std::nullopt; // Sub-range currently merged into this node.
  return RapNode(Arena, Child);
}

inline uint64_t RapNode::subtreeWeight() const {
  return Arena->subtreeWeight(Index);
}

inline uint64_t RapNode::subtreeNodeCount() const {
  return Arena->subtreeNodeCount(Index);
}

} // namespace rap

#endif // RAP_CORE_RAPNODE_H
