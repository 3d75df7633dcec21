#include "dp/model.hpp"

#include <bit>
#include <cmath>
#include <cstring>
#include <fstream>
#include <string_view>

#include "hpc/net/wire.hpp"
#include "md/box.hpp"
#include "util/error.hpp"
#include "util/fs.hpp"
#include "util/rng.hpp"

namespace dpho::dp {

static_assert(std::endian::native == std::endian::little,
              "the model blob is the host's float64 bytes, declared little-endian");

namespace {

constexpr const char* kByteOrder = "little";

// One mix step per 8-byte word, each a bijection of the state for a fixed
// word, so any change confined to one word (a single bit flip included)
// changes the result.  The caller has checked that the size is 8 * words.
std::uint64_t blob_checksum(std::span<const std::byte> blob) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t at = 0; at + sizeof(std::uint64_t) <= blob.size();
       at += sizeof(std::uint64_t)) {
    std::uint64_t word = 0;
    std::memcpy(&word, blob.data() + at, sizeof word);
    h = (h ^ word) * 0x100000001b3ULL;
    h ^= h >> 29;
  }
  return h;
}

std::vector<std::byte> read_blob(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw util::IoError("cannot open model blob " + path.string());
  const std::streamoff size = in.tellg();
  if (size < 0) throw util::IoError("cannot size model blob " + path.string());
  std::vector<std::byte> bytes(static_cast<std::size_t>(size));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  if (!in) throw util::IoError("short read of model blob " + path.string());
  return bytes;
}

}  // namespace

DeepPotModel::DeepPotModel(const ModelSpec& spec, std::vector<md::Species> types,
                           double energy_bias_per_atom)
    : spec_(spec),
      types_(std::move(types)),
      energy_bias_per_atom_(energy_bias_per_atom),
      switching_(spec.descriptor.rcut, spec.descriptor.rcut_smth),
      sel_norm_(1.0 / static_cast<double>(spec.descriptor.sel)) {
  spec_.validate();
  if (types_.empty()) throw util::ValueError("model needs at least one atom");
  for (std::size_t i = 0; i < types_.size(); ++i) {
    if (static_cast<std::size_t>(types_[i]) >= md::kNumSpecies) {
      throw util::ValueError("model: type of atom " + std::to_string(i) + " is " +
                             std::to_string(static_cast<int>(types_[i])) +
                             ", not a species index");
    }
  }
  const std::size_t m1 = spec_.m1();
  const std::size_t m2 = spec_.m2();
  embeddings_.reserve(md::kNumSpecies * md::kNumSpecies);
  for (std::size_t pair = 0; pair < md::kNumSpecies * md::kNumSpecies; ++pair) {
    embeddings_.emplace_back(1, spec_.descriptor.neuron, spec_.descriptor.activation,
                             spec_.descriptor.activation);
  }
  fittings_.reserve(md::kNumSpecies);
  std::vector<std::size_t> fit_widths = spec_.fitting.neuron;
  fit_widths.push_back(1);  // scalar atomic energy head
  for (std::size_t t = 0; t < md::kNumSpecies; ++t) {
    fittings_.emplace_back(m1 * m2, fit_widths, spec_.fitting.activation,
                           nn::Activation::kIdentity);
  }
  num_params_ = 0;
  for (const auto& net : embeddings_) num_params_ += net.num_params();
  for (const auto& net : fittings_) num_params_ += net.num_params();
}

DeepPotModel::DeepPotModel(const ModelSpec& spec, std::vector<md::Species> types,
                           double energy_bias_per_atom, std::uint64_t seed)
    : DeepPotModel(spec, std::move(types), energy_bias_per_atom) {
  util::Rng rng(seed);
  for (nn::Mlp& net : embeddings_) net.init_xavier(rng);
  for (nn::Mlp& net : fittings_) net.init_xavier(rng);
}

DeepPotModel::DeepPotModel(const TrainInput& config, std::vector<md::Species> types,
                           double energy_bias_per_atom, std::uint64_t seed)
    : DeepPotModel(ModelSpec::from_train_input(config), std::move(types),
                   energy_bias_per_atom, seed) {}

std::vector<double> DeepPotModel::gather_params() const {
  std::vector<double> flat;
  flat.reserve(num_params_);
  for (const auto& net : embeddings_) {
    const auto view = net.params();
    flat.insert(flat.end(), view.begin(), view.end());
  }
  for (const auto& net : fittings_) {
    const auto view = net.params();
    flat.insert(flat.end(), view.begin(), view.end());
  }
  return flat;
}

void DeepPotModel::scatter_params(std::span<const double> params) {
  if (params.size() != num_params_) {
    throw util::ValueError("scatter_params: wrong parameter count");
  }
  std::size_t offset = 0;
  for (auto& net : embeddings_) {
    net.load_params(params.subspan(offset, net.num_params()));
    offset += net.num_params();
  }
  for (auto& net : fittings_) {
    net.load_params(params.subspan(offset, net.num_params()));
    offset += net.num_params();
  }
}

md::NeighborList DeepPotModel::build_topology(const md::Frame& frame) const {
  if (frame.positions.size() != types_.size()) {
    throw util::ValueError("frame atom count does not match model");
  }
  return md::NeighborList(md::Box(frame.box_length), frame.positions,
                          spec_.descriptor.rcut);
}

std::filesystem::path DeepPotModel::blob_path(const std::filesystem::path& header) {
  std::filesystem::path blob = header;
  blob.replace_extension(".params");
  if (blob == header) {
    throw util::ValueError("model artifact: header " + header.string() +
                           " has the blob's extension");
  }
  return blob;
}

util::Json DeepPotModel::header(std::span<const double> params) const {
  util::Json json;
  json["format"] = kFormat;
  json["spec"] = spec_.to_json();
  util::JsonArray type_array;
  for (md::Species s : types_) type_array.emplace_back(static_cast<int>(s));
  json["types"] = util::Json(std::move(type_array));
  json["energy_bias_per_atom"] = energy_bias_per_atom_;
  json["num_params"] = params.size();
  json["byte_order"] = kByteOrder;
  json["checksum"] = hpc::net::encode_u64(blob_checksum(std::as_bytes(params)));
  return json;
}

util::Json DeepPotModel::save() const { return header(gather_params()); }

void DeepPotModel::save_file(const std::filesystem::path& header_path) const {
  const std::filesystem::path blob = blob_path(header_path);
  const std::vector<double> params = gather_params();
  const std::span<const std::byte> bytes = std::as_bytes(std::span(params));
  util::atomic_write_file(
      blob, std::string_view(reinterpret_cast<const char*>(bytes.data()), bytes.size()));
  util::atomic_write_file(header_path, header(params).dump(2) + "\n");
}

DeepPotModel DeepPotModel::unfilled(const util::Json& document) {
  // "spec" is the current shape; "config" is the legacy one (a full
  // TrainInput document, whose model block ModelSpec also understands).
  const ModelSpec spec = document.contains("spec")
                             ? ModelSpec::from_json(document.at("spec"))
                             : ModelSpec::from_json(document.at("config"));
  const util::JsonArray& entries = document.at("types").as_array();
  std::vector<md::Species> types;
  types.reserve(entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    // Checked before the cast: Species is 8 bits wide, so 256 would wrap to 0.
    const std::uint64_t t = entries[i].as_uint();
    if (t >= md::kNumSpecies) {
      throw util::ValueError("model: types[" + std::to_string(i) + "] is " +
                             std::to_string(t) + ", not a species index");
    }
    types.push_back(static_cast<md::Species>(t));
  }
  return DeepPotModel(spec, std::move(types),
                      document.at("energy_bias_per_atom").as_number());
}

DeepPotModel DeepPotModel::load(const util::Json& header,
                                std::span<const std::byte> blob) {
  const std::string& format = header.at("format").as_string();
  if (format != kFormat) {
    throw util::ValueError("model artifact: unknown format '" + format + "'");
  }
  const std::string& byte_order = header.at("byte_order").as_string();
  if (byte_order != kByteOrder) {
    throw util::ValueError("model artifact: byte order '" + byte_order +
                           "' is not 'little'");
  }
  const std::uint64_t num_params = header.at("num_params").as_uint();
  if (blob.size() % sizeof(double) != 0 || blob.size() / sizeof(double) != num_params) {
    throw util::ValueError("model artifact: blob holds " + std::to_string(blob.size()) +
                           " bytes, not 8 * num_params (" +
                           std::to_string(num_params) + ")");
  }
  const std::uint64_t expected = hpc::net::decode_u64(header.at("checksum").as_string());
  const std::uint64_t actual = blob_checksum(blob);
  if (actual != expected) {
    throw util::ValueError("model artifact: checksum mismatch (header " +
                           hpc::net::encode_u64(expected) + ", blob " +
                           hpc::net::encode_u64(actual) + ")");
  }
  DeepPotModel model = unfilled(header);
  if (model.num_params_ != num_params) {
    throw util::ValueError("model artifact: num_params " + std::to_string(num_params) +
                           " differs from the spec's " +
                           std::to_string(model.num_params_));
  }
  // Each net's bytes go through one aligned scratch vector into
  // load_params, which fills the net and its packed weights once.
  std::vector<double> params;
  std::size_t offset = 0;
  const auto fill = [&](nn::Mlp& net) {
    params.resize(net.num_params());
    std::memcpy(params.data(), blob.data() + offset * sizeof(double),
                params.size() * sizeof(double));
    for (std::size_t k = 0; k < params.size(); ++k) {
      if (!std::isfinite(params[k])) {
        throw util::ValueError("model artifact: parameter " +
                               std::to_string(offset + k) + " is not finite");
      }
    }
    net.load_params(params);
    offset += params.size();
  };
  for (nn::Mlp& net : model.embeddings_) fill(net);
  for (nn::Mlp& net : model.fittings_) fill(net);
  return model;
}

DeepPotModel DeepPotModel::load_inline(const util::Json& document) {
  DeepPotModel model = unfilled(document);
  std::vector<double> params;
  for (const util::Json& p : document.at("params").as_array()) {
    params.push_back(p.as_number());
  }
  model.scatter_params(params);
  return model;
}

DeepPotModel DeepPotModel::load_file(const std::filesystem::path& header_path) {
  const util::Json header = util::Json::parse(util::read_file(header_path));
  if (!header.contains("format") && header.contains("params")) {
    return load_inline(header);
  }
  return load(header, read_blob(blob_path(header_path)));
}

}  // namespace dpho::dp
