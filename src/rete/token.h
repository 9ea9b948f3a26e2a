#ifndef PROCSIM_RETE_TOKEN_H_
#define PROCSIM_RETE_TOKEN_H_

#include <string>
#include <utility>

#include "relational/tuple.h"

namespace procsim::rete {

/// \brief A change notification flowing through the Rete network.
///
/// Inserted tuples carry a "+" tag and deleted tuples a "-" tag, as in §2 of
/// the paper; in-place modifications are represented as a "-" token for the
/// old value followed by a "+" token for the new value.
struct Token {
  enum class Tag { kInsert, kDelete };

  Tag tag = Tag::kInsert;
  rel::Tuple tuple;

  bool is_insert() const { return tag == Tag::kInsert; }

  /// A token derived from this one keeps the tag (and-node semantics).
  Token Derive(rel::Tuple derived) const { return Token{tag, std::move(derived)}; }

  std::string ToString() const {
    return std::string(is_insert() ? "[+ " : "[- ") + tuple.ToString() + "]";
  }
};

}  // namespace procsim::rete

#endif  // PROCSIM_RETE_TOKEN_H_
