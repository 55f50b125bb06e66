// Writer side of the .egps snapshot store (see format.h for the layout).
//
// A snapshot is written from an EntityGraph, including its CSR
// adjacency (EntityGraph::csr()); the CSR arrays land in the file exactly
// as Freeze() lays them out in memory, which is what makes the mmap open
// zero-copy.
#ifndef EGP_STORE_SNAPSHOT_WRITER_H_
#define EGP_STORE_SNAPSHOT_WRITER_H_

#include <iosfwd>
#include <string>

#include "common/result.h"
#include "graph/entity_graph.h"

namespace egp {

/// Serializes `graph`. The stream must be binary.
Status WriteSnapshot(const EntityGraph& graph, std::ostream& out);

/// Writes `graph` to `path` crash-safely: a temp file, fsync, rename,
/// fsync of the directory. A previous snapshot at `path`, possibly still
/// mapped by a server, stays intact until the rename.
Status CompileSnapshotFile(const EntityGraph& graph, const std::string& path);

}  // namespace egp

#endif  // EGP_STORE_SNAPSHOT_WRITER_H_
