#include "rnn/cell_kernels.hpp"

#include <cmath>

#include "kernels/elementwise.hpp"
#include "kernels/quant.hpp"
#include "obs/trace.hpp"
#include "kernels/gemm.hpp"
#include "rnn/quantized.hpp"
#include "util/check.hpp"

namespace bpar::rnn {

using kernels::gemm_nn;
using kernels::gemm_nt;
using kernels::gemm_tn;
using tensor::ConstMatrixView;
using tensor::Matrix;
using tensor::MatrixView;

void CellTape::init(CellType cell, int batch, int hidden) {
  gates.resize(batch, gate_count(cell) * hidden);
  h.resize(batch, hidden);
  if (cell == CellType::kLstm) {
    c.resize(batch, hidden);
    tanh_c.resize(batch, hidden);
  } else {
    rh.resize(batch, hidden);
  }
}

std::size_t CellTape::bytes() const {
  return (gates.count() + h.count() + c.count() + tanh_c.count() +
          rh.count()) *
         sizeof(float);
}

CellTapeViews CellTape::views() {
  return {gates.view(), h.view(), c.view(), tanh_c.view(), rh.view()};
}

CellTapeViews CellTape::views_rows(int row0, int nrows) {
  auto slice = [&](Matrix& m) -> MatrixView {
    if (m.count() == 0) return {};
    return m.view().block(row0, 0, nrows, m.cols());
  };
  return {slice(gates), slice(h), slice(c), slice(tanh_c), slice(rh)};
}

ConstCellTapeViews CellTape::cviews() const {
  return {gates.cview(), h.cview(), c.cview(), tanh_c.cview(), rh.cview()};
}

namespace {

/// Everything after the gate GEMMs: bias add, activations, state update.
/// Shared by the fp32 and int8 forward paths — `tape.gates` must already
/// hold x * Wx^T + h_prev * Wh^T (pre-bias, pre-activation).
void lstm_pointwise(const LayerParams& p, ConstMatrixView c_prev,
                    const CellTapeViews& tape) {
  const int batch = tape.gates.rows;
  const int hidden = p.hidden_size;
  MatrixView gates = tape.gates;
  kernels::add_bias_rows(gates, p.b.cview().row(0));

  BPAR_SPAN("rnn.lstm_pointwise");
  for (int r = 0; r < batch; ++r) {
    float* g = gates.row(r).data();
    // f, i: sigmoid; g: tanh; o: sigmoid.
    kernels::sigmoid_inplace({g, static_cast<std::size_t>(2 * hidden)});
    kernels::tanh_inplace({g + 2 * hidden, static_cast<std::size_t>(hidden)});
    kernels::sigmoid_inplace(
        {g + 3 * hidden, static_cast<std::size_t>(hidden)});

    const float* f = g;
    const float* i = g + hidden;
    const float* gbar = g + 2 * hidden;
    const float* o = g + 3 * hidden;
    const float* cp = c_prev.row(r).data();
    float* c = tape.c.row(r).data();
    float* tc = tape.tanh_c.row(r).data();
    float* h = tape.h.row(r).data();
    for (int j = 0; j < hidden; ++j) {
      c[j] = f[j] * cp[j] + i[j] * gbar[j];
      tc[j] = std::tanh(c[j]);
      h[j] = o[j] * tc[j];
    }
  }
}

void lstm_forward(const LayerParams& p, const kernels::QuantizedMatrix* qw,
                  ConstMatrixView x, ConstMatrixView h_prev,
                  ConstMatrixView c_prev, const CellTapeViews& tape) {
  // gates = x * Wx^T + h_prev * Wh^T (+ b inside the pointwise stage).
  if (qw != nullptr) {
    kernels::qgemm_nt(x, qw->view().block(0, 0, qw->rows(), p.input_size),
                      tape.gates);
    kernels::qgemm_nt(
        h_prev, qw->view().block(0, p.input_size, qw->rows(), p.hidden_size),
        tape.gates, 1.0F);
  } else {
    gemm_nt(x, p.w_input(), tape.gates);
    gemm_nt(h_prev, p.w_recurrent(), tape.gates, 1.0F, 1.0F);
  }
  lstm_pointwise(p, c_prev, tape);
}

/// Bias + sigmoid over the fused z,r block, then rh = r ⊙ h_prev. Shared by
/// the fp32 and int8 paths; the z,r GEMMs must have run already.
void gru_zr_pointwise(const LayerParams& p, ConstMatrixView h_prev,
                      const CellTapeViews& tape) {
  const int batch = tape.gates.rows;
  const int hidden = p.hidden_size;
  MatrixView gates = tape.gates;
  MatrixView zr = gates.block(0, 0, batch, 2 * hidden);
  for (int r = 0; r < batch; ++r) {
    kernels::add_inplace(zr.row(r),
                         p.b.cview().row(0).subspan(0, 2 * hidden));
    kernels::sigmoid_inplace(zr.row(r));
  }

  // rh = r ⊙ h_prev, then the candidate block uses rh as recurrent input.
  for (int r = 0; r < batch; ++r) {
    const float* rr = gates.row(r).data() + hidden;
    kernels::hadamard({rr, static_cast<std::size_t>(hidden)}, h_prev.row(r),
                      tape.rh.row(r));
  }
}

/// Bias + tanh over the candidate block, then h = z⊙h̄ + (1-z)⊙h_prev
/// (Eq. 10). Shared by the fp32 and int8 paths.
void gru_hbar_pointwise(const LayerParams& p, ConstMatrixView h_prev,
                        const CellTapeViews& tape) {
  const int batch = tape.gates.rows;
  const int hidden = p.hidden_size;
  MatrixView gates = tape.gates;
  MatrixView hbar = gates.block(0, 2 * hidden, batch, hidden);
  for (int r = 0; r < batch; ++r) {
    kernels::add_inplace(hbar.row(r),
                         p.b.cview().row(0).subspan(2 * hidden));
    kernels::tanh_inplace(hbar.row(r));
  }

  BPAR_SPAN("rnn.gru_pointwise");
  for (int r = 0; r < batch; ++r) {
    const float* g = gates.row(r).data();
    const float* z = g;
    const float* hb = g + 2 * hidden;
    const float* hp = h_prev.row(r).data();
    float* h = tape.h.row(r).data();
    for (int j = 0; j < hidden; ++j) {
      h[j] = z[j] * hb[j] + (1.0F - z[j]) * hp[j];
    }
  }
}

void gru_forward(const LayerParams& p, const kernels::QuantizedMatrix* qw,
                 ConstMatrixView x, ConstMatrixView h_prev,
                 const CellTapeViews& tape) {
  const int batch = tape.gates.rows;
  const int hidden = p.hidden_size;
  MatrixView gates = tape.gates;
  MatrixView zr = gates.block(0, 0, batch, 2 * hidden);
  MatrixView hbar = gates.block(0, 2 * hidden, batch, hidden);

  // Input side: one 3H-wide GEMM across z, r and h̄ (the wide-gate input
  // GEMM of Appleyard et al.). The h̄ block is written before the z,r
  // pointwise stage runs; that stage reads and writes only the z,r block.
  if (qw != nullptr) {
    kernels::qgemm_nt(x, qw->view().block(0, 0, 3 * hidden, p.input_size),
                      gates);
  } else {
    gemm_nt(x, p.w_input(), gates);
  }

  // z, r recurrent half, then their pointwise stage (also builds rh).
  if (qw != nullptr) {
    kernels::qgemm_nt(h_prev,
                      qw->view().block(0, p.input_size, 2 * hidden, hidden),
                      zr, 1.0F);
  } else {
    gemm_nt(h_prev, p.w.cview().block(0, p.input_size, 2 * hidden, hidden),
            zr, 1.0F, 1.0F);
  }
  gru_zr_pointwise(p, h_prev, tape);

  // Candidate block's recurrent half against rh = r ⊙ h_prev.
  if (qw != nullptr) {
    kernels::qgemm_nt(
        tape.rh, qw->view().block(2 * hidden, p.input_size, hidden, hidden),
        hbar, 1.0F);
  } else {
    gemm_nt(tape.rh,
            p.w.cview().block(2 * hidden, p.input_size, hidden, hidden), hbar,
            1.0F, 1.0F);
  }
  gru_hbar_pointwise(p, h_prev, tape);
}

void lstm_backward(const LayerParams& p, ConstMatrixView x,
                   ConstMatrixView h_prev, ConstMatrixView c_prev,
                   const ConstCellTapeViews& tape, ConstMatrixView dh_total,
                   ConstMatrixView dc_in, MatrixView dx_acc,
                   MatrixView dh_prev_acc, MatrixView dc_prev_out,
                   LayerGrads& grads) {
  const int batch = x.rows;
  const int hidden = p.hidden_size;
  Matrix dgates(batch, 4 * hidden);  // pre-activation gate gradients
  MatrixView dg_view = dgates.view();

  const ConstMatrixView gates = tape.gates;
  const bool has_dc_in = dc_in.data != nullptr;
  for (int r = 0; r < batch; ++r) {
    const float* g = gates.row(r).data();
    const float* f = g;
    const float* i = g + hidden;
    const float* gbar = g + 2 * hidden;
    const float* o = g + 3 * hidden;
    const float* tc = tape.tanh_c.row(r).data();
    const float* cp = c_prev.row(r).data();
    const float* dh = dh_total.row(r).data();
    const float* dci = has_dc_in ? dc_in.row(r).data() : nullptr;
    float* dg = dg_view.row(r).data();
    float* dcp = dc_prev_out.row(r).data();
    for (int j = 0; j < hidden; ++j) {
      const float dc = (dci != nullptr ? dci[j] : 0.0F) +
                       dh[j] * o[j] * kernels::dtanh_from_y(tc[j]);
      const float df = dc * cp[j];
      const float di = dc * gbar[j];
      const float dgb = dc * i[j];
      const float dout = dh[j] * tc[j];
      dg[j] = df * kernels::dsigmoid_from_y(f[j]);
      dg[j + hidden] = di * kernels::dsigmoid_from_y(i[j]);
      dg[j + 2 * hidden] = dgb * kernels::dtanh_from_y(gbar[j]);
      dg[j + 3 * hidden] = dout * kernels::dsigmoid_from_y(o[j]);
      dcp[j] = dc * f[j];
    }
  }

  // Weight/bias gradients (shared per layer; caller serializes).
  gemm_tn(dg_view, x, grads.dw_input(p.input_size), 1.0F, 1.0F);
  gemm_tn(dg_view, h_prev, grads.dw_recurrent(p.input_size, hidden), 1.0F,
          1.0F);
  kernels::sum_rows_acc(dg_view, grads.db.view().row(0));

  // Input and recurrent-state gradients.
  if (dx_acc.data != nullptr) {
    gemm_nn(dg_view, p.w_input(), dx_acc, 1.0F, 1.0F);
  }
  gemm_nn(dg_view, p.w_recurrent(), dh_prev_acc, 1.0F, 1.0F);
}

void gru_backward(const LayerParams& p, ConstMatrixView x,
                  ConstMatrixView h_prev, const ConstCellTapeViews& tape,
                  ConstMatrixView dh_total, MatrixView dx_acc,
                  MatrixView dh_prev_acc, LayerGrads& grads) {
  const int batch = x.rows;
  const int hidden = p.hidden_size;
  const ConstMatrixView gates = tape.gates;

  // Candidate branch first: dG_h̄ = dh ⊙ z ⊙ (1 - h̄²).
  Matrix dg_hbar(batch, hidden);
  for (int r = 0; r < batch; ++r) {
    const float* g = gates.row(r).data();
    const float* z = g;
    const float* hb = g + 2 * hidden;
    const float* dh = dh_total.row(r).data();
    float* dghb = dg_hbar.view().row(r).data();
    float* dhp = dh_prev_acc.row(r).data();
    for (int j = 0; j < hidden; ++j) {
      dghb[j] = dh[j] * z[j] * kernels::dtanh_from_y(hb[j]);
      dhp[j] += dh[j] * (1.0F - z[j]);  // direct h_prev path of Eq. 10
    }
  }

  const ConstMatrixView w_h_x =
      p.w.cview().block(2 * hidden, 0, hidden, p.input_size);
  const ConstMatrixView w_h_h =
      p.w.cview().block(2 * hidden, p.input_size, hidden, hidden);
  // dW for the candidate block: inputs were [x, rh].
  gemm_tn(dg_hbar.cview(), x,
          grads.dw.view().block(2 * hidden, 0, hidden, p.input_size), 1.0F,
          1.0F);
  gemm_tn(dg_hbar.cview(), tape.rh,
          grads.dw.view().block(2 * hidden, p.input_size, hidden, hidden),
          1.0F, 1.0F);
  kernels::sum_rows_acc(dg_hbar.cview(),
                        grads.db.view().row(0).subspan(2 * hidden));
  if (dx_acc.data != nullptr) {
    gemm_nn(dg_hbar.cview(), w_h_x, dx_acc, 1.0F, 1.0F);
  }

  // drh = dG_h̄ * W_h̄h, then split into dr and the gated h_prev path.
  Matrix drh(batch, hidden);
  gemm_nn(dg_hbar.cview(), w_h_h, drh.view());

  // z and r pre-activation gradients.
  Matrix dg_zr(batch, 2 * hidden);
  for (int r = 0; r < batch; ++r) {
    const float* g = gates.row(r).data();
    const float* z = g;
    const float* rr = g + hidden;
    const float* hb = g + 2 * hidden;
    const float* hp = h_prev.row(r).data();
    const float* dh = dh_total.row(r).data();
    const float* drh_r = drh.cview().row(r).data();
    float* dhp = dh_prev_acc.row(r).data();
    float* dzr = dg_zr.view().row(r).data();
    for (int j = 0; j < hidden; ++j) {
      const float dz = dh[j] * (hb[j] - hp[j]);
      const float dr = drh_r[j] * hp[j];
      dhp[j] += drh_r[j] * rr[j];  // h_prev path through rh
      dzr[j] = dz * kernels::dsigmoid_from_y(z[j]);
      dzr[j + hidden] = dr * kernels::dsigmoid_from_y(rr[j]);
    }
  }

  const ConstMatrixView w_zr_x =
      p.w.cview().block(0, 0, 2 * hidden, p.input_size);
  const ConstMatrixView w_zr_h =
      p.w.cview().block(0, p.input_size, 2 * hidden, hidden);
  gemm_tn(dg_zr.cview(), x,
          grads.dw.view().block(0, 0, 2 * hidden, p.input_size), 1.0F, 1.0F);
  gemm_tn(dg_zr.cview(), h_prev,
          grads.dw.view().block(0, p.input_size, 2 * hidden, hidden), 1.0F,
          1.0F);
  kernels::sum_rows_acc(dg_zr.cview(),
                        grads.db.view().row(0).subspan(0, 2 * hidden));
  if (dx_acc.data != nullptr) {
    gemm_nn(dg_zr.cview(), w_zr_x, dx_acc, 1.0F, 1.0F);
  }
  gemm_nn(dg_zr.cview(), w_zr_h, dh_prev_acc, 1.0F, 1.0F);
}

/// Shared fp32/int8 forward entry: a non-null `qw` routes every gate GEMM
/// through the int8 path.
void forward(const LayerParams& p, const kernels::QuantizedMatrix* qw,
             ConstMatrixView x, ConstMatrixView h_prev,
             ConstMatrixView c_prev, const CellTapeViews& tape) {
  BPAR_SPAN("rnn.cell_forward");
  BPAR_CHECK(x.cols == p.input_size, "cell input width ", x.cols,
             " != layer input size ", p.input_size);
  BPAR_CHECK(h_prev.rows == x.rows && h_prev.cols == p.hidden_size,
             "h_prev shape mismatch");
  if (qw != nullptr) {
    BPAR_CHECK(qw->rows() == p.w.rows() && qw->cols() == p.w.cols(),
               "quantized weight shape mismatch");
  }
  if (p.cell == CellType::kLstm) {
    BPAR_CHECK(c_prev.data != nullptr, "LSTM needs c_prev");
    lstm_forward(p, qw, x, h_prev, c_prev, tape);
  } else {
    gru_forward(p, qw, x, h_prev, tape);
  }
}

}  // namespace

void cell_forward(const LayerParams& p, ConstMatrixView x,
                  ConstMatrixView h_prev, ConstMatrixView c_prev,
                  const CellTapeViews& tape) {
  forward(p, nullptr, x, h_prev, c_prev, tape);
}

void cell_forward_quantized(const LayerParams& p,
                            const kernels::QuantizedMatrix& qw,
                            ConstMatrixView x, ConstMatrixView h_prev,
                            ConstMatrixView c_prev,
                            const CellTapeViews& tape) {
  forward(p, &qw, x, h_prev, c_prev, tape);
}

void cell_backward(const LayerParams& p, ConstMatrixView x,
                   ConstMatrixView h_prev, ConstMatrixView c_prev,
                   const ConstCellTapeViews& tape, ConstMatrixView dh_total,
                   ConstMatrixView dc_in, MatrixView dx_acc,
                   MatrixView dh_prev_acc, MatrixView dc_prev_out,
                   LayerGrads& grads) {
  BPAR_SPAN("rnn.cell_backward");
  BPAR_CHECK(dh_total.rows == x.rows && dh_total.cols == p.hidden_size,
             "dh shape mismatch");
  if (p.cell == CellType::kLstm) {
    lstm_backward(p, x, h_prev, c_prev, tape, dh_total, dc_in, dx_acc,
                  dh_prev_acc, dc_prev_out, grads);
  } else {
    gru_backward(p, x, h_prev, tape, dh_total, dx_acc, dh_prev_acc, grads);
  }
}

}  // namespace bpar::rnn
