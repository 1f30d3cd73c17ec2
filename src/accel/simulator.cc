#include "accel/simulator.hh"

#include <algorithm>

#include "accel/conv_lowering.hh"
#include "common/logging.hh"

namespace vibnn::accel
{

Simulator::Simulator(const QuantizedProgram &program,
                     const AcceleratorConfig &config,
                     grng::GaussianGenerator *generator)
    : program_(program), config_(config),
      kernel_(program_.activationFormat, program_.weightFormat,
              program_.epsFormat),
      weightGen_(kernel_, generator)
{
    validateProgram(program_, config_);

    const int n = config_.peInputs();
    for (int p = 0; p < config_.totalPes(); ++p)
        pes_.emplace_back(kernel_);

    // IFMems sized for the widest window any op stages: every op
    // boundary plus conv patches (a patch can exceed the input maps
    // when the kernel overhangs a small padded input).
    std::size_t widest = program_.inputDim();
    for (const auto &op : program_.ops) {
        widest = std::max({widest, op.inSize, op.outSize});
        if (op.kind == OpKind::ConvLowered)
            widest = std::max(widest, op.conv.patchSize());
    }
    const std::size_t if_depth = (widest + n - 1) / n;
    ifmems_[0] =
        std::make_unique<DualPortRam>("IFMem1", if_depth, n);
    ifmems_[1] =
        std::make_unique<DualPortRam>("IFMem2", if_depth, n);

    weights_.resize(static_cast<std::size_t>(config_.pesPerSet) * n);

    packWpmems();
}

void
Simulator::setGenerator(grng::GaussianGenerator *generator)
{
    weightGen_.setGenerator(generator);
}

void
Simulator::packWpmems()
{
    const int t_sets = config_.peSets;
    const int s_pes = config_.pesPerSet;
    const int n = config_.peInputs();
    const int m = config_.totalPes();

    // Total words per WPMem across all compute ops.
    std::size_t depth = 0;
    opWpBase_.clear();
    for (const auto &op : program_.ops) {
        opWpBase_.push_back(depth);
        if (!op.isCompute())
            continue;
        const std::size_t rounds = (op.bank.outDim + m - 1) / m;
        const std::size_t chunks = (op.bank.inDim + n - 1) / n;
        depth += rounds * chunks;
    }

    const std::size_t lanes = static_cast<std::size_t>(s_pes) * n;
    for (int t = 0; t < t_sets; ++t) {
        wpmemMu_.push_back(std::make_unique<DualPortRam>(
            "WPMem" + std::to_string(t + 1) + ".mu", depth, lanes));
        wpmemSigma_.push_back(std::make_unique<DualPortRam>(
            "WPMem" + std::to_string(t + 1) + ".sigma", depth, lanes));
    }

    // Pack: word (op, round, chunk) for set t holds, for each PE s in
    // the set, the N parameters of neuron round*M + t*S + s over
    // inputs [chunk*N, chunk*N + N). A ConvLowered op packs its filter
    // bank once; every position pass re-reads the same words.
    for (std::size_t oi = 0; oi < program_.ops.size(); ++oi) {
        const auto &op = program_.ops[oi];
        if (!op.isCompute())
            continue;
        const auto &bank = op.bank;
        const std::size_t rounds = (bank.outDim + m - 1) / m;
        const std::size_t chunks = (bank.inDim + n - 1) / n;
        for (std::size_t r = 0; r < rounds; ++r) {
            for (std::size_t c = 0; c < chunks; ++c) {
                const std::size_t addr =
                    opWpBase_[oi] + r * chunks + c;
                for (int t = 0; t < t_sets; ++t) {
                    RamWord &mu = wpmemMu_[t]->backdoor(addr);
                    RamWord &sg = wpmemSigma_[t]->backdoor(addr);
                    for (int s = 0; s < s_pes; ++s) {
                        const std::size_t neuron =
                            r * m + static_cast<std::size_t>(t) * s_pes +
                            s;
                        for (int k = 0; k < n; ++k) {
                            const std::size_t input = c * n + k;
                            std::int32_t mv = 0, sv = 0;
                            if (neuron < bank.outDim &&
                                input < bank.inDim) {
                                const std::size_t idx =
                                    neuron * bank.inDim + input;
                                mv = bank.muWeight[idx];
                                sv = bank.sigmaWeight[idx];
                            }
                            mu[s * n + k] = mv;
                            sg[s * n + k] = sv;
                        }
                    }
                }
            }
        }
    }
}

std::uint64_t
Simulator::runBankRounds(std::size_t wp_index, const QuantizedLayer &bank,
                         bool relu, DualPortRam &ifmem_in,
                         DualPortRam &ifmem_out)
{
    const int t_sets = config_.peSets;
    const int s_pes = config_.pesPerSet;
    const int n = config_.peInputs();
    const int m = config_.totalPes();

    const std::size_t rounds = (bank.outDim + m - 1) / m;
    const std::size_t chunks = (bank.inDim + n - 1) / n;
    const std::size_t lanes = static_cast<std::size_t>(s_pes) * n;
    std::uint64_t cycles = 0;

    for (std::size_t r = 0; r < rounds; ++r) {
        for (auto &pe : pes_)
            pe.startNeuron();

        for (std::size_t c = 0; c < chunks; ++c) {
            // ---- one chunk cycle ----
            ifmem_in.beginCycle();
            const RamWord &inputs = ifmem_in.read(c);
            ++stats_.ifmemReads;

            const std::size_t addr =
                opWpBase_[wp_index] + r * chunks + c;
            for (int t = 0; t < t_sets; ++t) {
                wpmemMu_[t]->beginCycle();
                wpmemSigma_[t]->beginCycle();
                const RamWord &mu = wpmemMu_[t]->read(addr);
                const RamWord &sg = wpmemSigma_[t]->read(addr);
                stats_.wpmemReads += 2;

                // Every lane consumes an eps each cycle — the GRNG
                // free-runs — whether or not the neuron is real. The
                // whole WPMem word (all S*N lanes of the set) is
                // sampled in one block call against the eps ring.
                weightGen_.sampleBlock(mu.data(), sg.data(),
                                       weights_.data(), lanes);
                for (int s = 0; s < s_pes; ++s) {
                    pes_[static_cast<std::size_t>(t) * s_pes + s]
                        .macChunk(weights_.data() + s * n,
                                  inputs.data(), n);
                }
            }
            ++cycles;
        }

        // Pipeline drain: weight-generator tier + PE stages.
        cycles += WeightGenerator::pipelineDepth + Pe::pipelineDepth;

        // Memory distributor: finish neurons, pack one word per set,
        // write into the idle IFMem. Writes overlap the next round's
        // compute (the validate() drain condition guarantees the write
        // port keeps up); only the final round's writes extend the
        // bank's critical path.
        for (int t = 0; t < t_sets; ++t) {
            RamWord &word = distWord_;
            word.assign(n, 0);
            bool any = false;
            for (int s = 0; s < s_pes; ++s) {
                const std::size_t neuron =
                    r * m + static_cast<std::size_t>(t) * s_pes + s;
                if (neuron >= bank.outDim)
                    continue;
                any = true;
                const std::int64_t value = pes_[static_cast<std::size_t>(
                                                    t) * s_pes + s]
                                               .finish(
                                                   bank.muBias[neuron],
                                                   /*output_layer=*/!relu);
                word[s] = static_cast<std::int32_t>(value);
            }
            if (any) {
                ifmem_out.beginCycle();
                ifmem_out.write(r * t_sets + t, word);
                ++stats_.ifmemWrites;
                if (r + 1 == rounds)
                    ++cycles; // non-overlapped tail writes
            }
        }
    }
    return cycles;
}

void
Simulator::runDenseOp(std::size_t op_index)
{
    const auto &op = program_.ops[op_index];
    std::uint64_t cycles =
        runBankRounds(op_index, op.bank, op.relu, *ifmems_[activeIfmem_],
                      *ifmems_[1 - activeIfmem_]);
    cycles += 2; // op-boundary controller sync
    stats_.opCycles[op_index] += cycles;
    stats_.totalCycles += cycles;
    activeIfmem_ = 1 - activeIfmem_;
}

void
Simulator::runConvOp(std::size_t op_index)
{
    const auto &op = program_.ops[op_index];
    const int n = config_.peInputs();
    DualPortRam &ifmem_in = *ifmems_[activeIfmem_];
    DualPortRam &ifmem_out = *ifmems_[1 - activeIfmem_];

    // Host-side gather (the memory distributor's external role): pull
    // the CHW input maps out of the active IFMem and im2col them. The
    // transfer is pipelined with compute and not charged cycles, like
    // the image load in runPass.
    mapStage_.resize(op.inSize);
    for (std::size_t i = 0; i < op.inSize; ++i)
        mapStage_[i] = ifmem_in.backdoor(i / n)[i % n];
    im2colRaw(op.conv, mapStage_.data(), patchStage_);

    const std::size_t positions = op.conv.positions();
    const std::size_t patch = op.conv.patchSize();
    const std::size_t chunks = (patch + n - 1) / n;
    outStage_.assign(op.outSize, 0);

    std::uint64_t cycles = 0;
    for (std::size_t p = 0; p < positions; ++p) {
        // Stage this position's patch into the active IFMem, padded to
        // whole N-wide words.
        const std::int64_t *row = patchStage_.data() + p * patch;
        for (std::size_t w = 0; w < chunks; ++w) {
            RamWord &word = ifmem_in.backdoor(w);
            for (int k = 0; k < n; ++k) {
                const std::size_t i = w * n + k;
                word[k] = i < patch
                              ? static_cast<std::int32_t>(row[i])
                              : 0;
            }
        }

        // One bank schedule per output position — fresh weight samples
        // from the same WPMem planes each time.
        cycles += runBankRounds(op_index, op.bank, op.relu, ifmem_in,
                                ifmem_out) +
            2; // position-boundary controller sync

        // Collect the position's channel column into the CHW staging.
        for (std::size_t oc = 0; oc < op.conv.outChannels; ++oc) {
            outStage_[oc * positions + p] =
                ifmem_out.backdoor(oc / n)[oc % n];
        }
    }

    // Re-stage the CHW output maps into the idle IFMem (distributor
    // write-back, overlapped with the final position's drain).
    for (std::size_t w = 0; w * n < op.outSize; ++w) {
        RamWord &word = ifmem_out.backdoor(w);
        for (int k = 0; k < n; ++k) {
            const std::size_t i = w * n + k;
            word[k] = i < op.outSize
                          ? static_cast<std::int32_t>(outStage_[i])
                          : 0;
        }
    }

    stats_.opCycles[op_index] += cycles;
    stats_.totalCycles += cycles;
    activeIfmem_ = 1 - activeIfmem_;
}

void
Simulator::runPoolOp(std::size_t op_index)
{
    const auto &op = program_.ops[op_index];
    const int n = config_.peInputs();
    DualPortRam &ifmem_in = *ifmems_[activeIfmem_];
    DualPortRam &ifmem_out = *ifmems_[1 - activeIfmem_];

    // Stream the maps through the distributor datapath: one word read
    // per cycle into the comparator line buffer...
    const std::size_t in_words = (op.inSize + n - 1) / n;
    mapStage_.resize(op.inSize);
    std::uint64_t cycles = 0;
    for (std::size_t w = 0; w < in_words; ++w) {
        ifmem_in.beginCycle();
        const RamWord &word = ifmem_in.read(w);
        ++stats_.ifmemReads;
        for (int k = 0; k < n; ++k) {
            const std::size_t i = w * n + k;
            if (i < op.inSize)
                mapStage_[i] = word[k];
        }
        ++cycles;
    }

    // ...max over each window (monotone on the activation grid, so raw
    // comparison is exact)...
    outStage_.assign(op.outSize, 0);
    maxPoolRaw(op.pool, mapStage_.data(), outStage_.data());

    // ...and one word written per cycle into the idle IFMem.
    const std::size_t out_words = (op.outSize + n - 1) / n;
    RamWord &word = distWord_;
    for (std::size_t w = 0; w < out_words; ++w) {
        word.assign(n, 0);
        for (int k = 0; k < n; ++k) {
            const std::size_t i = w * n + k;
            if (i < op.outSize)
                word[k] = static_cast<std::int32_t>(outStage_[i]);
        }
        ifmem_out.beginCycle();
        ifmem_out.write(w, word);
        ++stats_.ifmemWrites;
        ++cycles;
    }

    cycles += 2; // op-boundary controller sync
    stats_.opCycles[op_index] += cycles;
    stats_.totalCycles += cycles;
    activeIfmem_ = 1 - activeIfmem_;
}

std::vector<std::int64_t>
Simulator::runPass(const float *x)
{
    const int n = config_.peInputs();
    const auto &act = program_.activationFormat;

    if (stats_.opCycles.size() != program_.ops.size())
        stats_.opCycles.assign(program_.ops.size(), 0);

    // Load the quantized image into the active IFMem (backdoor: the
    // external-memory transfer of the next image overlaps the current
    // pass, so it is not part of the per-image cycle count).
    activeIfmem_ = 0;
    const std::size_t in_dim = program_.inputDim();
    for (std::size_t w = 0; w * n < in_dim; ++w) {
        RamWord &word = ifmems_[0]->backdoor(w);
        for (int k = 0; k < n; ++k) {
            const std::size_t i = w * n + k;
            word[k] = i < in_dim
                          ? static_cast<std::int32_t>(act.fromReal(x[i]))
                          : 0;
        }
    }

    for (std::size_t oi = 0; oi < program_.ops.size(); ++oi) {
        switch (program_.ops[oi].kind) {
          case OpKind::Dense:
            runDenseOp(oi);
            break;
          case OpKind::ConvLowered:
            runConvOp(oi);
            break;
          case OpKind::Pool:
            runPoolOp(oi);
            break;
          case OpKind::Flatten:
          case OpKind::Output:
            // Pure relabeling / staging: the activation window stays
            // where it is, no cycles.
            break;
        }
    }

    // Collect the output window from the now-active IFMem.
    const std::size_t out_dim = program_.outputDim();
    std::vector<std::int64_t> out(out_dim);
    for (std::size_t i = 0; i < out_dim; ++i) {
        const RamWord &word = ifmems_[activeIfmem_]->backdoor(i / n);
        out[i] = word[i % n];
    }

    // Refresh aggregate counters.
    stats_.grnSamples = weightGen_.samplesDrawn();
    std::uint64_t macs = 0;
    for (const auto &pe : pes_)
        macs += pe.macCount();
    stats_.macs = macs;
    ++stats_.images;
    return out;
}

} // namespace vibnn::accel
