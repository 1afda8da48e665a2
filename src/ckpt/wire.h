// Wire/file framing for ckpt::Snapshot — the unit of distribution.
//
// An in-memory Snapshot is four things: the padding-free state blob, its
// section table, the images held beside it (global-store pages, launch and
// block-record history), and the immutable kernel programs launches
// reference by index. encode_snapshot() frames all four as one
// self-contained byte stream that can cross a socket or live in a file:
//
//   header     magic, frame version, snapshot version, capture metadata
//   sections   name / offset / length / record size / hash64 each
//   blob       the raw state bytes
//   images     three tables: store pages, launch images, block-record
//              images; each a count, then per image: length, hash64,
//              bytes, with a store page's index ahead of its length
//   programs   each KernelProgram serialized field-by-field (instructions,
//              register/predicate/shared/param requirements)
//   trailer    hash64 checksum over every preceding frame byte
//
// decode_snapshot() refuses corruption loudly instead of restoring garbage:
// the frame checksum is validated first (truncation, bit rot, a torn
// transfer), then every section's and every image's stored hash is
// recomputed over the received bytes — a mismatch names the damaged section
// ("snapshot section 'sm3' corrupted in transit"), store page or history
// image, which is the difference between a diagnosable dead worker and a
// silently wrong campaign. Every length field is checked against the bytes left before
// anything is allocated from it. Restoring a decoded snapshot onto a
// device still performs the existing magic/version/parameter-fingerprint
// checks inside the blob.
#pragma once

#include <string>
#include <vector>

#include "ckpt/snapshot.h"

namespace higpu::ckpt {

/// Frame format version; bump on any change to the framing layout (the
/// snapshot *blob* layout is versioned independently by Snapshot::kVersion).
/// v2: hash64 checksums and section hashes; store pages framed inline.
/// v3: launch and block-record history images framed after the pages.
/// v4: the store extent joins the capture metadata; a store page carries
///     its index, and only written pages are framed.
constexpr u32 kWireVersion = 4;
constexpr u64 kWireMagic = 0x48475055534E4150ull;  // "HGPUSNAP"

/// Serialize a snapshot (blob + sections + store pages + programs +
/// metadata) into one checksummed byte stream.
std::vector<u8> encode_snapshot(const Snapshot& snap);

/// Parse an encoded snapshot. Throws SnapshotError on: bad magic, frame
/// version skew, a frame checksum mismatch (naming the expected/actual
/// values), truncation, a length field larger than the bytes left, a store
/// page table out of order, with a duplicate or out-of-range index, or with
/// a page that is not kStorePageBytes long, or a section or image whose
/// recomputed hash differs from the stored one (naming the section, the
/// store page's address or the history image's index). The returned snapshot
/// is bit-identical to the encoded one (same blob and pages, hence same
/// Snapshot::hash()).
SnapshotPtr decode_snapshot(const std::vector<u8>& bytes);

/// Write an encoded snapshot to `path` (atomically enough for our purposes:
/// full write + flush; the decode checksum catches torn files). Throws
/// std::runtime_error on I/O failure.
void write_snapshot_file(const std::string& path, const Snapshot& snap);

/// Read + decode a snapshot file. Throws std::runtime_error if the file
/// can't be read, SnapshotError if its contents fail validation.
SnapshotPtr read_snapshot_file(const std::string& path);

}  // namespace higpu::ckpt
