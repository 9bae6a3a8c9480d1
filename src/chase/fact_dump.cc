#include "chase/fact_dump.h"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <map>
#include <vector>

#include "common/crc32.h"
#include "common/failpoint.h"
#include "common/strings.h"

namespace triq::chase {

namespace {

constexpr char kMagic[8] = {'T', 'R', 'I', 'Q', 'F', 'C', 'T', '\n'};
// Version 2 added the CRC32 footer; version-1 dumps (pre-checksum cache
// files) are not accepted — they regenerate from source in one bench run.
constexpr uint32_t kVersion = 2;

void PutU32(std::string* out, uint32_t v) {
  const char bytes[4] = {static_cast<char>(v), static_cast<char>(v >> 8),
                         static_cast<char>(v >> 16), static_cast<char>(v >> 24)};
  out->append(bytes, 4);
}

/// Bounds-checked cursor over a dump image. Every read validates
/// against the bytes actually present before touching them, so corrupt
/// counts come back as errors, never as over-reads or multi-GB
/// allocations.
class Reader {
 public:
  explicit Reader(const std::string& bytes) : bytes_(bytes) {}

  uint64_t remaining() const { return bytes_.size() - pos_; }

  bool Raw(void* out, size_t n) {
    if (remaining() < n) return false;
    std::copy_n(bytes_.data() + pos_, n, static_cast<char*>(out));
    pos_ += n;
    return true;
  }

  bool U32(uint32_t* v) {
    unsigned char b[4];
    if (!Raw(b, 4)) return false;
    *v = static_cast<uint32_t>(b[0]) | (static_cast<uint32_t>(b[1]) << 8) |
         (static_cast<uint32_t>(b[2]) << 16) |
         (static_cast<uint32_t>(b[3]) << 24);
    return true;
  }

  bool Text(std::string* out, uint32_t len) {
    if (remaining() < len) return false;
    out->assign(bytes_.data() + pos_, len);
    pos_ += len;
    return true;
  }

 private:
  const std::string& bytes_;
  size_t pos_ = 0;
};

Status Corrupt(const std::string& context, const std::string& what) {
  return Status::InvalidArgument("fact dump " + context + ": " + what);
}

Status Torn(const std::string& context, const std::string& what) {
  return Status::DataLoss("fact dump " + context + ": " + what);
}

}  // namespace

Status SaveFactsToString(const Instance& instance, std::string* out) {
  out->clear();
  const Dictionary& dict = instance.dict();
  out->append(kMagic, sizeof(kMagic));
  PutU32(out, kVersion);

  // Dictionary ids are dense (1..size), so the file reuses them as-is.
  uint32_t num_symbols = static_cast<uint32_t>(dict.size());
  PutU32(out, num_symbols);
  for (uint32_t id = 1; id <= num_symbols; ++id) {
    const std::string& text = dict.Text(id);
    PutU32(out, static_cast<uint32_t>(text.size()));
    out->append(text);
  }

  PutU32(out, instance.null_count());
  for (uint32_t id = 0; id < instance.null_count(); ++id) {
    PutU32(out, instance.NullDepth(Term::Null(id)));
  }

  // Relations in ascending predicate id: deterministic bytes for
  // identical instances.
  std::map<PredicateId, const Relation*> ordered;
  for (const auto& [pred, rel] : instance.relations()) {
    ordered.emplace(pred, &rel);
  }
  PutU32(out, static_cast<uint32_t>(ordered.size()));
  for (const auto& [pred, rel] : ordered) {
    PutU32(out, pred);
    PutU32(out, rel->arity());
    PutU32(out, static_cast<uint32_t>(rel->size()));
    for (uint32_t pos = 0; pos < rel->arity(); ++pos) {
      for (Term t : rel->Column(pos)) {
        if (t.IsVariable()) {
          return Status::Internal("stored fact contains a variable");
        }
        PutU32(out, t.raw());
      }
    }
  }
  PutU32(out, Crc32(out->data(), out->size()));
  return Status::OK();
}

Status SaveFacts(const Instance& instance, const std::string& path) {
  std::string bytes;
  TRIQ_RETURN_IF_ERROR(SaveFactsToString(instance, &bytes));
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::InvalidArgument("cannot open " + path + " for writing");
  }
  if (FailpointHit("fact_dump.save.short")) {
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
    out.flush();
    return Status::DataLoss("failpoint fact_dump.save.short: torn write to " +
                            path);
  }
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out) return Status::InvalidArgument("short write to " + path);
  return Status::OK();
}

Result<Instance> LoadFactsFromString(const std::string& bytes,
                                     std::shared_ptr<Dictionary> dict,
                                     const std::string& context) {
  // Verify the footer over the whole image before parsing anything:
  // after this, any structural error means a foreign or buggy writer
  // (InvalidArgument), not bit rot.
  if (bytes.size() < sizeof(kMagic) + 8 || bytes.compare(0, sizeof(kMagic), kMagic, sizeof(kMagic)) != 0) {
    return Corrupt(context, "bad magic");
  }
  Reader in(bytes);
  {
    char magic[sizeof(kMagic)];
    in.Raw(magic, sizeof(magic));
  }
  uint32_t version = 0;
  in.U32(&version);
  if (version != kVersion) return Corrupt(context, "unsupported version");
  {
    const size_t body = bytes.size() - 4;
    const unsigned char* f =
        reinterpret_cast<const unsigned char*>(bytes.data()) + body;
    const uint32_t stored = static_cast<uint32_t>(f[0]) |
                            (static_cast<uint32_t>(f[1]) << 8) |
                            (static_cast<uint32_t>(f[2]) << 16) |
                            (static_cast<uint32_t>(f[3]) << 24);
    if (Crc32(bytes.data(), body) != stored) {
      return Torn(context, "checksum mismatch");
    }
  }

  uint32_t num_symbols = 0;
  if (!in.U32(&num_symbols)) return Torn(context, "truncated header");
  // Every symbol needs at least its 4-byte length field.
  if (uint64_t{num_symbols} * 4 > in.remaining()) {
    return Corrupt(context, "symbol count exceeds file size");
  }
  // File symbol id -> target dictionary id (index 0 = reserved).
  std::vector<SymbolId> symbol_map(static_cast<size_t>(num_symbols) + 1,
                                   kInvalidSymbol);
  dict->Reserve(dict->size() + num_symbols);
  std::string text;
  for (uint32_t i = 1; i <= num_symbols; ++i) {
    uint32_t len = 0;
    if (!in.U32(&len)) return Torn(context, "truncated symbol table");
    if (!in.Text(&text, len)) {
      return Corrupt(context, "symbol length exceeds file size");
    }
    symbol_map[i] = dict->Intern(text);
  }

  Instance instance(std::move(dict));
  uint32_t num_nulls = 0;
  if (!in.U32(&num_nulls)) return Torn(context, "truncated null table");
  if (uint64_t{num_nulls} * 4 > in.remaining()) {
    return Corrupt(context, "null count exceeds file size");
  }
  std::vector<Term> null_map;
  null_map.reserve(num_nulls);
  for (uint32_t i = 0; i < num_nulls; ++i) {
    uint32_t depth = 0;
    if (!in.U32(&depth)) return Torn(context, "truncated null depths");
    null_map.push_back(instance.AllocateNull(depth));
  }

  // Decodes one file term word (Term bit packing over FILE-local ids)
  // into a target-dictionary Term. Returns false for variables and
  // out-of-range ids.
  auto remap = [&](uint32_t bits, Term* out_term) -> bool {
    uint32_t tag = bits >> 30;
    uint32_t payload = bits & 0x3fffffffu;
    if (tag == static_cast<uint32_t>(datalog::TermKind::kConstant)) {
      if (payload == kInvalidSymbol || payload >= symbol_map.size()) {
        return false;
      }
      *out_term = Term::Constant(symbol_map[payload]);
      return true;
    }
    if (tag == static_cast<uint32_t>(datalog::TermKind::kNull)) {
      if (payload >= null_map.size()) return false;
      *out_term = null_map[payload];
      return true;
    }
    return false;  // variables are not storable
  };

  uint32_t num_relations = 0;
  if (!in.U32(&num_relations)) {
    return Torn(context, "truncated relation count");
  }
  std::vector<uint32_t> column;
  for (uint32_t r = 0; r < num_relations; ++r) {
    uint32_t pred_file = 0, arity = 0, count = 0;
    if (!in.U32(&pred_file) || !in.U32(&arity) || !in.U32(&count)) {
      return Torn(context, "truncated relation header");
    }
    if (pred_file == kInvalidSymbol || pred_file >= symbol_map.size()) {
      return Corrupt(context, "relation predicate out of range");
    }
    if (arity == 0 || arity > 64) {
      return Corrupt(context, "relation arity out of range");
    }
    if (uint64_t{arity} * count > in.remaining() / 4) {
      return Corrupt(context, "relation size exceeds file size");
    }
    PredicateId pred = symbol_map[pred_file];
    Relation& rel = instance.GetOrCreate(pred, arity);
    if (rel.arity() != arity) {
      return Corrupt(context, "relation arity clashes with an earlier one");
    }
    rel.Reserve(count);
    // Columns arrive column-major; gather row-wise through a staging
    // buffer so Insert sees whole tuples.
    column.assign(static_cast<size_t>(arity) * count, 0);
    for (size_t i = 0; i < column.size(); ++i) {
      if (!in.U32(&column[i])) return Torn(context, "truncated columns");
    }
    Tuple tuple(arity);
    for (uint32_t idx = 0; idx < count; ++idx) {
      for (uint32_t pos = 0; pos < arity; ++pos) {
        if (!remap(column[static_cast<size_t>(pos) * count + idx],
                   &tuple[pos])) {
          return Corrupt(context, "term out of range");
        }
      }
      rel.Insert(tuple);
    }
  }
  return instance;
}

Result<Instance> LoadFacts(const std::string& path,
                           std::shared_ptr<Dictionary> dict) {
  TRIQ_ASSIGN_OR_RETURN(std::string image, ReadFile(path));
  return LoadFactsFromString(image, std::move(dict), path);
}

uint64_t FactFingerprint(const Instance& instance) {
  // FNV-1a over the canonical sorted rendering (Instance::ToString
  // orders facts lexicographically and names nulls by id), then over
  // the null depth table — text-level, so two engines that interned
  // the same facts in different dictionary orders fingerprint equal.
  const std::string text = instance.ToString();
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  };
  mix(text.data(), text.size());
  const uint32_t nulls = instance.null_count();
  mix(&nulls, sizeof(nulls));
  for (uint32_t id = 0; id < nulls; ++id) {
    const uint32_t depth = instance.NullDepth(Term::Null(id));
    mix(&depth, sizeof(depth));
  }
  return h;
}

}  // namespace triq::chase
