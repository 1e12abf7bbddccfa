#pragma once
/// \file fusion.hpp
/// \brief Operator fusion passes (Sec. III step 4: "operator fusion").

#include "opt/pass.hpp"

namespace vedliot::opt {

/// Fold BatchNorm into the preceding Conv2d/Dense.
///
/// When weights are materialized the fold is numeric: W' = W * gamma/sqrt(var+eps),
/// b' = (b - mean) * gamma/sqrt(var+eps) + beta, and the executor output is
/// preserved up to float rounding. On analytic graphs (no weights) the BN is
/// bypassed and the conv is tagged `fused_bn=1` so cost accounting still
/// reflects the fusion.
class FuseBatchNormPass : public Pass {
 public:
  std::string name() const override { return "fuse-batchnorm"; }
  PassResult run(Graph& g) override;
};

/// Fuse a unary activation into the preceding Conv2d/Dense, and a Relu or
/// Relu6 into the preceding Add (tag `fused_act`), when the producer has no
/// other consumer; the executor applies the activation in the producer's
/// epilogue, which is how every real inference runtime avoids an extra
/// memory round trip (and, in int8, a second rounding).
class FuseActivationPass : public Pass {
 public:
  std::string name() const override { return "fuse-activation"; }
  PassResult run(Graph& g) override;
};

/// Remove Identity nodes left behind by other rewrites.
class EliminateIdentityPass : public Pass {
 public:
  std::string name() const override { return "eliminate-identity"; }
  PassResult run(Graph& g) override;
};

/// Common-subexpression elimination: weight-free nodes with identical
/// (kind, inputs, attributes) compute the same tensor — keep the first,
/// rewire consumers of the duplicates. Catches e.g. parallel identical
/// pooling branches produced by mechanical graph construction/import.
class CsePass : public Pass {
 public:
  std::string name() const override { return "cse"; }
  PassResult run(Graph& g) override;
};

}  // namespace vedliot::opt
