// Binary key tree for Tree Group Diffie-Hellman (TGDH, the ROADMAP's
// "scale the key agreement" item): every leaf holds one member's secret
// share, every internal node's secret is k_parent = g^{k_left * k_right},
// computable by either side as BK_sibling^{k_mine} — one exponentiation per
// tree level, so a member reaches the root (the group secret) in O(log n)
// exponentiations while blinded keys BK = g^k are public and cached.
//
// The tree is a pure data structure: deterministic shape evolution (insert
// at the shallowest/leftmost leaf, remove by collapsing the parent onto the
// sibling) lets every group member derive the identical tree from the same
// membership batch with no shape negotiation. Nodes are addressed on the
// wire by their path from the root (left = 0, right = 1), so cached keys
// survive subtree moves and only the paths a mutation touched recompute.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "crypto/dh.h"

namespace ss::crypto {

/// Wire address of a tree node: the root-to-node path. `path` holds the
/// branch bits with the first step in the most significant of the `depth`
/// low bits (root = depth 0, path 0).
struct KeyTreeNodeId {
  std::uint8_t depth = 0;
  std::uint64_t path = 0;

  friend auto operator<=>(const KeyTreeNodeId&, const KeyTreeNodeId&) = default;
  template <class S>
  void fields(S& s) {
    s(depth, path);
  }
};

class KeyTree {
 public:
  /// Opaque leaf owner identity (the secure layer packs a MemberId in).
  using LeafId = std::uint64_t;

  KeyTree() = default;
  KeyTree(KeyTree&&) = default;
  KeyTree& operator=(KeyTree&&) = default;

  bool empty() const { return root_ == nullptr; }
  std::size_t leaf_count() const { return leaves_.size(); }
  bool contains(LeafId id) const { return leaves_.count(id) != 0; }

  /// Builds a balanced tree over `leaves` (order defines tree order). Any
  /// previous state is discarded; no keys are set.
  void build(const std::vector<LeafId>& leaves);
  /// Rebuilds the shape from a leaf layout (as produced by leaf_layout());
  /// throws std::invalid_argument if the layout does not describe a proper
  /// binary tree. No keys are set.
  void load(const std::vector<std::pair<KeyTreeNodeId, LeafId>>& layout);
  /// Leaves in tree order (left to right) with their node addresses.
  std::vector<std::pair<KeyTreeNodeId, LeafId>> leaf_layout() const;

  /// Inserts a leaf at the shallowest, leftmost position (splitting that
  /// leaf into an internal node: old occupant left, new leaf right) and
  /// invalidates the keys on the new leaf's ancestor path. Throws
  /// std::logic_error if the leaf already exists or the tree is empty.
  void insert_leaf(LeafId id);
  /// Removes a leaf by collapsing its parent onto the sibling subtree
  /// (which keeps its cached keys) and invalidates the ancestor path.
  /// Returns false if the leaf is unknown. Removing the last leaf empties
  /// the tree.
  bool remove_leaf(LeafId id);

  /// Installs (or replaces) a leaf's secret and computes its blinded key
  /// (one exponentiation); ancestor keys are invalidated.
  void set_leaf_secret(LeafId id, const DhGroup& dh, Bignum secret);
  /// Drops a leaf's keys and invalidates its ancestor path (a peer's leaf
  /// whose refresh is pending).
  void clear_leaf_key(LeafId id);

  /// Fills a node's blinded key if it has none. Returns true iff newly set;
  /// false when unknown node, or a value is already present (within one key
  /// round each node has exactly one valid value — never overwrite).
  bool set_blinded(const KeyTreeNodeId& id, const Bignum& bk);
  /// Round-advance merge: overwrites a differing blinded key and
  /// invalidates the node's secret and its ancestors' keys. Returns true
  /// iff something changed; equal values and unknown nodes are no-ops.
  bool replace_blinded(const KeyTreeNodeId& id, const Bignum& bk);
  std::optional<Bignum> blinded(const KeyTreeNodeId& id) const;
  /// Every node with a known blinded key, in tree (pre-)order.
  std::vector<std::pair<KeyTreeNodeId, Bignum>> known_blindeds() const;

  /// Blindeds on `self`'s root path (its leaf and every ancestor whose
  /// blinded is known) — the nodes this member vouches for itself. O(log n)
  /// entries, vs known_blindeds' O(n) full-tree sweep.
  std::vector<std::pair<KeyTreeNodeId, Bignum>> path_blindeds(LeafId self) const;

  /// One climbing pass from `self`'s leaf toward the root: at each level
  /// where the node secret is known and the sibling's blinded key is
  /// available, computes the parent secret and its blinded key (two
  /// exponentiations). Returns the addresses of newly keyed nodes, deepest
  /// first. O(log n) exponentiations, tallied as kUpdateKeyShare (the root
  /// step as kSessionKey).
  std::vector<KeyTreeNodeId> climb(LeafId self, const DhGroup& dh);

  bool has_root_secret() const { return root_ != nullptr && root_->secret.has_value(); }
  /// Valid only when has_root_secret().
  const Bignum& root_secret() const { return *root_->secret; }

  /// The sponsor of a node: the rightmost leaf underneath it (the member
  /// responsible for broadcasting the node's blinded key). Throws
  /// std::logic_error on an unknown node.
  LeafId sponsor_of(const KeyTreeNodeId& id) const;
  /// Node address of a leaf; throws std::logic_error if unknown.
  KeyTreeNodeId leaf_node(LeafId id) const;

 private:
  struct Node {
    std::unique_ptr<Node> left;
    std::unique_ptr<Node> right;
    Node* parent = nullptr;
    bool is_leaf = false;
    LeafId leaf = 0;
    std::optional<Bignum> secret;
    std::optional<Bignum> blinded;
  };

  Node* find(const KeyTreeNodeId& id) const;
  static KeyTreeNodeId id_of(const Node* n);
  static void invalidate_ancestors(Node* n);
  void index_leaves(Node* n);

  std::unique_ptr<Node> root_;
  std::map<LeafId, Node*> leaves_;
};

}  // namespace ss::crypto
