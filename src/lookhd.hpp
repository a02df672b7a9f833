/**
 * @file
 * Umbrella header: pulls in the whole public API.
 *
 * Fine for applications and quick experiments; library-internal code
 * and anything compile-time sensitive should include the specific
 * headers instead.
 */

#ifndef LOOKHD_LOOKHD_HPP
#define LOOKHD_LOOKHD_HPP

// Utilities
#include "util/histogram.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

// HDC substrate
#include "hdc/bitpack.hpp"
#include "hdc/clustering.hpp"
#include "hdc/encoder.hpp"
#include "hdc/hypervector.hpp"
#include "hdc/item_memory.hpp"
#include "hdc/model.hpp"
#include "hdc/ngram_encoder.hpp"
#include "hdc/online_trainer.hpp"
#include "hdc/quantized_model.hpp"
#include "hdc/record_encoder.hpp"
#include "hdc/similarity.hpp"
#include "hdc/trainer.hpp"

// Quantization
#include "quant/quantizer.hpp"
#include "quant/quantizer_bank.hpp"

// Data
#include "data/apps.hpp"
#include "data/csv.hpp"
#include "data/dataset.hpp"
#include "data/metrics.hpp"
#include "data/synthetic.hpp"

// LookHD core
#include "lookhd/chunking.hpp"
#include "lookhd/classifier.hpp"
#include "lookhd/codebook.hpp"
#include "lookhd/compressed_model.hpp"
#include "lookhd/counter_trainer.hpp"
#include "lookhd/lookup_encoder.hpp"
#include "lookhd/lookup_table.hpp"
#include "lookhd/retrainer.hpp"
#include "lookhd/score_table.hpp"
#include "lookhd/serialize.hpp"

// Hardware models and simulator
#include "hw/cpu_model.hpp"
#include "hw/datapath.hpp"
#include "hw/energy.hpp"
#include "hw/fpga_model.hpp"
#include "hw/gpu_model.hpp"
#include "hw/report.hpp"
#include "hw/resources.hpp"
#include "hwsim/lookhd_sim.hpp"
#include "hwsim/pipeline.hpp"

// Baselines
#include "baseline/mlp.hpp"
#include "baseline/mlp_fpga_model.hpp"

#endif // LOOKHD_LOOKHD_HPP
