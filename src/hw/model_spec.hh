/**
 * @file
 * Model catalog: the architectural parameters of the LLMs the paper
 * evaluates, from which weight size, KV-cache size per token and the
 * FLOP counts used by the roofline performance model are derived.
 */

#ifndef SLINFER_HW_MODEL_SPEC_HH
#define SLINFER_HW_MODEL_SPEC_HH

#include <string>

#include "common/types.hh"

namespace slinfer
{

/** Size class used for the baselines' per-model concurrency caps. */
enum class ModelClass { Small3B, Mid7B, Mid8B, Large13B, Huge22B, Huge34B };

/**
 * Static description of one LLM.
 */
struct ModelSpec
{
    std::string name;
    ModelClass klass = ModelClass::Mid7B;
    /** Total parameter count. */
    double params = 0.0;
    /** Transformer layer count. */
    int numLayers = 0;
    /** Hidden (model) dimension. */
    int hiddenDim = 0;
    /** KV bytes per token per layer (both K and V, all kv heads). */
    Bytes kvBytesPerLayerToken = 0;
    /** Bytes per weight parameter (2 for fp16/bf16, 0.5 for INT4). */
    double bytesPerParam = 2.0;
    /** Maximum context length the model supports. */
    Tokens maxContext = 4096;
    /** Tensor-parallel degree when deployed on GPUs (34B uses 2). */
    int tpDegree = 1;

    /** Total bytes of model weights. */
    Bytes weightBytes() const;

    /** KV-cache bytes for one token across all layers. */
    Bytes kvBytesPerToken() const;

    /** Linear-term FLOPs to process one token (2 * params). */
    double flopsPerToken() const;

    /**
     * Quadratic attention FLOPs for a prefill of length L:
     * 4 * layers * hidden * L^2 (QK^T plus attention-value matmuls).
     */
    double attnFlops(Tokens len) const;
};

inline Bytes
ModelSpec::weightBytes() const
{
    return static_cast<Bytes>(params * bytesPerParam);
}

inline Bytes
ModelSpec::kvBytesPerToken() const
{
    return kvBytesPerLayerToken * static_cast<Bytes>(numLayers);
}

inline double
ModelSpec::flopsPerToken() const
{
    return 2.0 * params;
}

inline double
ModelSpec::attnFlops(Tokens len) const
{
    double l = static_cast<double>(len);
    return 4.0 * numLayers * hiddenDim * l * l;
}

/** Llama-3.2-3B (28 layers, 3072 dim, GQA-8). */
ModelSpec llama32_3b();
/** Llama-2-7B (32 layers, 4096 dim, MHA). */
ModelSpec llama2_7b();
/** Llama-3.1-8B (32 layers, 4096 dim, GQA-8, 32k context). */
ModelSpec llama31_8b();
/** Llama-2-13B (40 layers, 5120 dim, MHA). */
ModelSpec llama2_13b();
/** Codestral-22B (56 layers, 6144 dim, GQA-8). */
ModelSpec codestral_22b();
/** CodeLlama-34B (48 layers, 8192 dim, GQA-8, TP=2 on GPUs). */
ModelSpec codellama_34b();

/** Derive an INT4-quantized variant (weights shrink 4x; KV unchanged). */
ModelSpec quantized(ModelSpec base, int bits);

/**
 * Look up a built-in preset by display name ("Llama-2-7B") or kebab
 * slug ("llama2-7b"); false on unknown names. Timeline `model-deploy`
 * entries name their spec this way.
 */
bool tryModelPreset(const std::string &name, ModelSpec &out);

/** Short human name of a model class (for tables). */
const char *modelClassName(ModelClass klass);

} // namespace slinfer

#endif // SLINFER_HW_MODEL_SPEC_HH
