/**
 * @file
 * Model serialization — the deployment-image flow of the paper made
 * durable.
 *
 * The paper trains on CPU/GPU and migrates the variational parameters
 * (mu, sigma) to the FPGA's memory (Section 2.2). This module provides
 * the file formats for exactly that hand-off:
 *
 *  - a trained BayesianMlp / BayesianConvNet (float mu/rho, so training
 *    can resume and requantization at other bit-lengths is possible);
 *  - a QuantizedProgram (the compiled op list with the raw integer
 *    planes the accelerator loads — the actual deployment image, and a
 *    cache that skips the compile step on later runs).
 *
 * Quantized models are written only as programs. Older flat-network
 * images (a list of dense layers, file kind 2) still load: the program
 * loader lifts them into the program compile() emits for that MLP.
 *
 * Format: little-endian binary; magic "VIBNNMDL", format version, a
 * kind tag, the payload, and an FNV-1a checksum trailer. Loaders return
 * nullptr (with a warn()) on any structural or checksum failure —
 * corrupted images must never reach the accelerator.
 */

#ifndef VIBNN_CORE_MODEL_IO_HH
#define VIBNN_CORE_MODEL_IO_HH

#include <memory>
#include <string>

#include "accel/program.hh"
#include "bnn/bayesian_cnn.hh"
#include "bnn/bayesian_mlp.hh"

namespace vibnn::core
{

/** Save a trained Bayesian MLP. @return false on IO failure. */
bool saveBayesianMlp(const bnn::BayesianMlp &net, const std::string &path);

/** Load a Bayesian MLP; nullptr (after warn()) on any failure. */
std::unique_ptr<bnn::BayesianMlp>
loadBayesianMlp(const std::string &path);

/** Save a trained Bayesian ConvNet. @return false on IO failure. */
bool saveBayesianConvNet(const bnn::BayesianConvNet &net,
                         const std::string &path);

/** Load a Bayesian ConvNet; nullptr (after warn()) on any failure. */
std::unique_ptr<bnn::BayesianConvNet>
loadBayesianConvNet(const std::string &path);

/** Save a compiled program (same tagged + FNV-1a checksum container),
 *  so compiled CNN programs can be cached across runs instead of
 *  recompiled. @return false on IO failure. */
bool saveQuantizedProgram(const accel::QuantizedProgram &program,
                          const std::string &path);

/** Load a compiled program — or a legacy flat-network image, lifted to
 *  one Dense op per layer plus Output staging; nullptr (after warn())
 *  on any failure. Callers validate against their AcceleratorConfig
 *  exactly as the executors do for freshly compiled programs. */
std::unique_ptr<accel::QuantizedProgram>
loadQuantizedProgram(const std::string &path);

} // namespace vibnn::core

#endif // VIBNN_CORE_MODEL_IO_HH
