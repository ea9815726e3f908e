#include "hw/model_spec.hh"

#include <utility>

#include "common/log.hh"

namespace slinfer
{

Bytes
ModelSpec::weightBytes() const
{
    return static_cast<Bytes>(params * bytesPerParam);
}

Bytes
ModelSpec::kvBytesPerToken() const
{
    return kvBytesPerLayerToken * static_cast<Bytes>(numLayers);
}

double
ModelSpec::flopsPerToken() const
{
    return 2.0 * params;
}

double
ModelSpec::attnFlops(Tokens len) const
{
    double l = static_cast<double>(len);
    return 4.0 * numLayers * hiddenDim * l * l;
}

namespace
{

/** KV bytes per layer-token: 2 (K and V) * kv_dim * 2 bytes (fp16). */
Bytes
kvLayerBytes(int kv_heads, int head_dim)
{
    return static_cast<Bytes>(2 * kv_heads * head_dim * 2);
}

} // namespace

ModelSpec
llama32_3b()
{
    ModelSpec m;
    m.name = "Llama-3.2-3B";
    m.klass = ModelClass::Small3B;
    m.params = 3.2e9;
    m.numLayers = 28;
    m.hiddenDim = 3072;
    m.kvBytesPerLayerToken = kvLayerBytes(8, 128);
    m.maxContext = 4096;
    return m;
}

ModelSpec
llama2_7b()
{
    ModelSpec m;
    m.name = "Llama-2-7B";
    m.klass = ModelClass::Mid7B;
    m.params = 6.7e9;
    m.numLayers = 32;
    m.hiddenDim = 4096;
    m.kvBytesPerLayerToken = kvLayerBytes(32, 128);
    m.maxContext = 4096;
    return m;
}

ModelSpec
llama31_8b()
{
    ModelSpec m;
    m.name = "Llama-3.1-8B";
    m.klass = ModelClass::Mid8B;
    m.params = 8.0e9;
    m.numLayers = 32;
    m.hiddenDim = 4096;
    m.kvBytesPerLayerToken = kvLayerBytes(8, 128);
    m.maxContext = 32768;
    return m;
}

ModelSpec
llama2_13b()
{
    ModelSpec m;
    m.name = "Llama-2-13B";
    m.klass = ModelClass::Large13B;
    m.params = 13.0e9;
    m.numLayers = 40;
    m.hiddenDim = 5120;
    m.kvBytesPerLayerToken = kvLayerBytes(40, 128);
    m.maxContext = 4096;
    return m;
}

ModelSpec
codestral_22b()
{
    ModelSpec m;
    m.name = "Codestral-22B";
    m.klass = ModelClass::Huge22B;
    m.params = 22.2e9;
    m.numLayers = 56;
    m.hiddenDim = 6144;
    m.kvBytesPerLayerToken = kvLayerBytes(8, 128);
    m.maxContext = 4096;
    return m;
}

ModelSpec
codellama_34b()
{
    ModelSpec m;
    m.name = "CodeLlama-34B";
    m.klass = ModelClass::Huge34B;
    m.params = 33.7e9;
    m.numLayers = 48;
    m.hiddenDim = 8192;
    m.kvBytesPerLayerToken = kvLayerBytes(8, 128);
    m.maxContext = 4096;
    m.tpDegree = 2;
    return m;
}

ModelSpec
quantized(ModelSpec base, int bits)
{
    if (bits != 4 && bits != 8)
        fatal("quantized: only INT4/INT8 supported");
    base.bytesPerParam = bits / 8.0;
    base.name += bits == 4 ? "-INT4" : "-INT8";
    return base;
}

bool
tryModelPreset(const std::string &name, ModelSpec &out)
{
    // Matches the CLI slug or the spec's display name. Timelines look
    // a preset up once per spec, so a scan of six entries is enough.
    constexpr std::pair<const char *, ModelSpec (*)()> presets[] = {
        {"llama32-3b", llama32_3b},   {"llama2-7b", llama2_7b},
        {"llama31-8b", llama31_8b},   {"llama2-13b", llama2_13b},
        {"codestral-22b", codestral_22b},
        {"codellama-34b", codellama_34b},
    };
    for (const auto &[slug, make] : presets) {
        ModelSpec m = make();
        if (name == slug || name == m.name) {
            out = std::move(m);
            return true;
        }
    }
    return false;
}

const char *
modelClassName(ModelClass klass)
{
    switch (klass) {
      case ModelClass::Small3B: return "3B";
      case ModelClass::Mid7B: return "7B";
      case ModelClass::Mid8B: return "8B";
      case ModelClass::Large13B: return "13B";
      case ModelClass::Huge22B: return "22B";
      case ModelClass::Huge34B: return "34B";
    }
    return "?";
}

} // namespace slinfer
