#include "ckpt/wire.h"

#include <cstdio>

#include "isa/instruction.h"
#include "isa/verify/verify.h"

namespace higpu::ckpt {

namespace {

/// Smallest encoding of a program (empty name, no code), for bounding the
/// program count.
constexpr size_t kMinProgramBytes = 8 + 2 + 2 + 4 + 4 + 8;
/// Length + hash ahead of every image's bytes, and the page index ahead of
/// a store page's.
constexpr size_t kImageHeaderBytes = 8 + 8;
constexpr size_t kStorePageHeaderBytes = 4 + kImageHeaderBytes;

void put_image(Writer& w, const Image& image) {
  w.put64(image.bytes.size());
  w.put64(image.hash);
  w.put_bytes(image.bytes.data(), image.bytes.size());
}

void put_images(Writer& w, const std::vector<ImagePtr>& images) {
  w.put64(images.size());
  for (const ImagePtr& image : images) put_image(w, *image);
}

/// Read one image and re-hash it. `name()` names the image in errors; its
/// length must be `exact_len` when that is nonzero, and fit in the bytes
/// left either way.
template <class Name>
ImagePtr get_image(Reader& r, u64 exact_len, const Name& name) {
  const u64 len = r.get64();
  if (exact_len != 0 && len != exact_len)
    throw SnapshotError("snapshot " + name() + " is " + std::to_string(len) +
                        " bytes, not " + std::to_string(exact_len));
  if (len > r.remaining())
    throw SnapshotError("snapshot " + name() + " claims " +
                        std::to_string(len) + " bytes (max " +
                        std::to_string(r.remaining()) + ")");
  const u64 hash = r.get64();
  std::vector<u8> bytes(static_cast<size_t>(len));
  r.get_bytes(bytes.data(), bytes.size());
  ImagePtr image = make_image(std::move(bytes));
  if (image->hash != hash)
    throw SnapshotError("snapshot " + name() +
                        " corrupted in transit (stored hash does not match "
                        "its contents)");
  return image;
}

/// Read one history image table; `kind` names its images with their index.
std::vector<ImagePtr> get_images(Reader& r, const std::string& kind) {
  const u64 n = r.get_count(kImageHeaderBytes, (kind + " table").c_str());
  std::vector<ImagePtr> images;
  images.reserve(static_cast<size_t>(n));
  for (u64 i = 0; i < n; ++i)
    images.push_back(
        get_image(r, 0, [&] { return kind + " " + std::to_string(i); }));
  return images;
}

void put_store_pages(Writer& w, const std::vector<StorePage>& pages) {
  w.put64(pages.size());
  for (const StorePage& page : pages) {
    w.put32(page.index);
    put_image(w, *page.image);
  }
}

/// Read the store page table; a page is named by its device address.
std::vector<StorePage> get_store_pages(Reader& r) {
  const u64 n = r.get_count(kStorePageHeaderBytes, "store page table");
  std::vector<StorePage> pages(static_cast<size_t>(n));
  for (StorePage& page : pages) {
    page.index = r.get32();
    page.image = get_image(r, kStorePageBytes, [&] {
      char buf[48];
      std::snprintf(buf, sizeof(buf), "store page @0x%llx",
                    static_cast<unsigned long long>(page.index) *
                        kStorePageBytes);
      return std::string(buf);
    });
  }
  check_store_pages(pages);
  return pages;
}

void put_program(Writer& w, const isa::KernelProgram& p) {
  w.put_string(p.name());
  w.put16(p.num_regs());
  w.put16(p.num_preds());
  w.put32(p.shared_bytes());
  w.put32(p.num_params());
  put_field(w, p.code());
}

isa::ProgramPtr get_program(Reader& r) {
  std::string name = r.get_string();
  const u16 num_regs = r.get16();
  const u16 num_preds = r.get16();
  const u32 shared_bytes = r.get32();
  const u32 num_params = r.get32();
  std::vector<isa::Instruction> code;
  const FieldPath program{"program"};
  get_field(r, code, FieldPath{"code", &program});
  return std::make_shared<const isa::KernelProgram>(
      std::move(name), std::move(code), num_regs, num_preds, shared_bytes,
      num_params);
}

}  // namespace

std::vector<u8> encode_snapshot(const Snapshot& snap) {
  Writer w;
  w.put64(kWireMagic);
  w.put32(kWireVersion);
  w.put32(Snapshot::kVersion);

  put_fields(w, snap);  // capture metadata
  put_field(w, snap.sections);
  put_field(w, snap.blob);

  put_store_pages(w, snap.store_pages);
  put_images(w, snap.launch_images);
  put_images(w, snap.record_images);

  w.put64(snap.programs.size());
  for (const isa::ProgramPtr& p : snap.programs) put_program(w, *p);

  // Trailing checksum over everything framed so far: a truncated or
  // bit-flipped stream fails before any of it is interpreted as state.
  std::vector<u8> out = w.take_blob();
  const u64 checksum = hash64(out.data(), out.size());
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<u8>(checksum >> (8 * i)));
  return out;
}

SnapshotPtr decode_snapshot(const std::vector<u8>& bytes) {
  if (bytes.size() < 8 + 8)
    throw SnapshotError("snapshot frame truncated: " +
                        std::to_string(bytes.size()) + " bytes");
  u64 stored = 0;
  for (int i = 0; i < 8; ++i)
    stored |= static_cast<u64>(bytes[bytes.size() - 8 + static_cast<size_t>(i)])
              << (8 * i);
  const u64 actual = hash64(bytes.data(), bytes.size() - 8);
  if (stored != actual) {
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "snapshot frame checksum mismatch (stored %016llx, "
                  "computed %016llx)",
                  static_cast<unsigned long long>(stored),
                  static_cast<unsigned long long>(actual));
    throw SnapshotError(buf);
  }

  // The frame body is one unnamed stream; reuse Reader's bounds-checked
  // primitives with an empty section table.
  const std::vector<Section> no_sections;
  Reader r(bytes.data(), bytes.size() - 8, no_sections);

  if (r.get64() != kWireMagic)
    throw SnapshotError("not a framed snapshot (bad wire magic)");
  const u32 wire_version = r.get32();
  if (wire_version != kWireVersion)
    throw SnapshotError("snapshot frame v" + std::to_string(wire_version) +
                        " != supported v" + std::to_string(kWireVersion));
  const u32 snap_version = r.get32();
  if (snap_version != Snapshot::kVersion)
    throw SnapshotError("snapshot format v" + std::to_string(snap_version) +
                        " != supported v" +
                        std::to_string(Snapshot::kVersion));

  auto snap = std::make_shared<Snapshot>();
  get_fields(r, *snap);
  get_field(r, snap->sections, FieldPath{"section table"});
  get_field(r, snap->blob, FieldPath{"snapshot blob"});

  // Per-section integrity: recompute each section's hash over the received
  // blob. The frame checksum already rules out transport corruption; this
  // catches a frame assembled from a blob that was corrupted *before*
  // encoding, and names the damaged component either way.
  for (const Section& s : snap->sections) {
    if (s.len > snap->blob.size() || s.offset > snap->blob.size() - s.len)
      throw SnapshotError("snapshot section '" + s.name +
                          "' extends past the end of the blob");
    if (hash64(snap->blob.data() + s.offset, s.len) != s.hash)
      throw SnapshotError("snapshot section '" + s.name +
                          "' corrupted in transit (stored hash does not "
                          "match its contents)");
  }

  // Images, each re-hashed the same way; a store page is named by its
  // device address, a history image by its index.
  snap->store_pages = get_store_pages(r);
  snap->launch_images = get_images(r, "launch image");
  snap->record_images = get_images(r, "block-record image");

  // A program the launch gate would refuse must not reach a restore: it
  // compiles and runs every program in the table with no gate of its own.
  const u64 num_programs = r.get_count(kMinProgramBytes, "program table");
  snap->programs.reserve(static_cast<size_t>(num_programs));
  for (u64 i = 0; i < num_programs; ++i) {
    isa::ProgramPtr p = get_program(r);
    const isa::verify::Result vr = isa::verify::verify(*p);
    for (const isa::verify::Diag& d : vr.diags)
      if (d.severity == isa::verify::Severity::kError)
        throw SnapshotError("snapshot program " + std::to_string(i) +
                            " refused by the verifier: " +
                            isa::verify::code_name(d.code) + " (" +
                            d.message + ")");
    snap->programs.push_back(std::move(p));
  }
  return snap;
}

}  // namespace higpu::ckpt
