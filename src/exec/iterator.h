// The Volcano iterator interface.
//
// The Volcano query processor [4] established the open/next/close operator
// interface with tuples pipelined between operators ("operators consuming
// and producing sets or sequences of items are the fundamental building
// blocks", paper section 6). Every physical algorithm of the relational
// model has an iterator here, so optimized plans are executable.
//
// Tuples travel as borrowed pointers to schema().size() contiguous values,
// never as owned objects: a scan hands out a pointer into its table, a
// filter or semijoin forwards its input's pointer, and an operator that
// builds a tuple writes it into one buffer it owns. Nothing is allocated
// per tuple; materializing operators copy rows into a flat slab (Table).

#ifndef VOLCANO_EXEC_ITERATOR_H_
#define VOLCANO_EXEC_ITERATOR_H_

#include <memory>
#include <vector>

#include "exec/table.h"

namespace volcano::exec {

/// Demand-driven tuple stream.
class Iterator {
 public:
  virtual ~Iterator() = default;

  /// Prepares the stream; must be called exactly once before Next.
  virtual void Open() = 0;

  /// The next tuple (schema().size() values), or null at end of stream.
  /// The pointer stays valid until this iterator's next Next or Close;
  /// a consumer that needs the tuple longer must copy it.
  virtual const int64_t* Next() = 0;

  /// Releases resources; the stream must not be used afterwards.
  virtual void Close() = 0;

  /// Output schema (valid before Open).
  virtual const Schema& schema() const = 0;
};

using IteratorPtr = std::unique_ptr<Iterator>;

/// Drains an iterator into a vector (opens and closes it). The one place
/// tuples become owned Rows.
std::vector<Row> Drain(Iterator& it);

/// Order-insensitive multiset equality of result sets.
bool SameMultiset(std::vector<Row> a, std::vector<Row> b);

/// True if rows are non-decreasing on the given column indexes.
bool IsSortedBy(const std::vector<Row>& rows, const std::vector<int>& cols);

}  // namespace volcano::exec

#endif  // VOLCANO_EXEC_ITERATOR_H_
