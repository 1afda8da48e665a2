// Wire framing for ckpt::Snapshot.
//
// An in-memory Snapshot is four things: the padding-free state blob, its
// section table, the images held beside it (global-store pages, launch and
// block-record history), and the immutable kernel programs launches
// reference by index. encode_snapshot() frames all four as one
// self-contained byte stream:
//
//   header     magic, frame version, snapshot version, capture metadata
//   sections   name / offset / length / record size / hash64 each
//   blob       the raw state bytes
//   images     three tables: store pages, launch images, block-record
//              images; each a count, then per image: length, hash64,
//              bytes, with a store page's index ahead of its length
//   programs   each KernelProgram's register/predicate/shared/param
//              requirements, then its code through isa::Instruction's
//              visit_fields
//   trailer    hash64 checksum over every preceding frame byte
//
// decode_snapshot() refuses corruption loudly instead of restoring garbage:
// the frame checksum is validated first (truncation, bit rot, a torn
// transfer), then every section's and every image's stored hash is
// recomputed over the received bytes — a mismatch names the damaged section
// ("snapshot section 'sm3' corrupted in transit"), store page or history
// image, which is the difference between a diagnosable dead worker and a
// silently wrong campaign. Every length field is checked against the bytes left before
// anything is allocated from it. Every decoded program passes the static
// verifier, as a launched one does. Restoring a decoded snapshot onto a
// device still performs the existing magic/version/parameter-fingerprint
// checks inside the blob.
#pragma once

#include <vector>

#include "ckpt/snapshot.h"

namespace higpu::ckpt {

/// Frame format version; bump on any change to the framing layout (the
/// snapshot *blob* layout is versioned independently by Snapshot::kVersion).
/// v2: hash64 checksums and section hashes; store pages framed inline.
/// v3: launch and block-record history images framed after the pages.
/// v4: the store extent joins the capture metadata; a store page carries
///     its index, and only written pages are framed.
/// v5: program code is encoded through isa::Instruction's visit_fields, so
///     an opcode takes one byte (it took two), and a decoded enum field no
///     enumerator has is refused by its name ("program.code.op").
constexpr u32 kWireVersion = 5;
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
/// store page's address or the history image's index), or a program whose
/// code holds an enum value no enumerator has (naming the field, e.g.
/// "program.code.src.kind"), or a program isa::verify::verify finds an
/// error in under unknown launch bounds (naming the program's index and
/// the diagnostic's code, e.g. "empty-program"). The returned snapshot
/// is bit-identical to the encoded one (same blob and pages, hence same
/// Snapshot::hash()).
SnapshotPtr decode_snapshot(const std::vector<u8>& bytes);

}  // namespace higpu::ckpt
