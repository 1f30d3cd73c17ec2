/**
 * @file
 * Variational parameter block (see variational_matrix.hh).
 */

#include "bnn/variational_matrix.hh"

#include "bnn/kl_sum.hh"
#include "nn/activations.hh"

namespace vibnn::bnn
{

VariationalMatrix::VariationalMatrix(std::size_t rows, std::size_t cols,
                                     Rng &rng, float init_bound,
                                     float rho_init)
    : mu_(rows, cols), rho_(rows, cols)
{
    if (init_bound > 0.0f) {
        for (auto &m : mu_.data())
            m = static_cast<float>(rng.uniform(-init_bound, init_bound));
    }
    for (auto &r : rho_.data())
        r = rho_init + static_cast<float>(rng.uniform(-0.2, 0.2));
}

void
VariationalMatrix::ensureShape(nn::Matrix &m) const
{
    if (m.rows() != mu_.rows() || m.cols() != mu_.cols())
        m = nn::Matrix(mu_.rows(), mu_.cols());
}

void
VariationalMatrix::meanInto(nn::Matrix &w) const
{
    ensureShape(w);
    w.data() = mu_.data();
}

void
VariationalMatrix::accumulateSampleGrad(const nn::Matrix &dw,
                                        const nn::Matrix &eps,
                                        nn::Matrix &g_mu,
                                        nn::Matrix &g_rho) const
{
    for (std::size_t i = 0; i < mu_.size(); ++i) {
        const float g = dw.data()[i];
        g_mu.data()[i] += g;
        g_rho.data()[i] +=
            g * eps.data()[i] * nn::logistic(rho_.data()[i]);
    }
}

double
VariationalMatrix::klDivergence(float prior_sigma) const
{
    KlSum sum(prior_sigma);
    for (std::size_t i = 0; i < mu_.size(); ++i)
        sum.add(mu_.data()[i], nn::softplus(rho_.data()[i]));
    return sum.value();
}

double
VariationalMatrix::klValueAndGrad(float prior_sigma, float scale,
                                  nn::Matrix &g_mu,
                                  nn::Matrix &g_rho) const
{
    KlSum sum(prior_sigma, scale);
    float s = 0.0f, ds = 0.0f;
    for (std::size_t i = 0; i < mu_.size(); ++i) {
        nn::softplusLogistic(rho_.data()[i], s, ds);
        sum.add(mu_.data()[i], s, ds, g_mu.data()[i], g_rho.data()[i]);
    }
    return sum.value();
}

} // namespace vibnn::bnn
