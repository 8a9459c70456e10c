//! Replays tree 0 of a training run through each layer's public functions,
//! in the trainer's order, with a span around every call.
//!
//! The replay follows `dimboost_core::trainer`'s round 0 step for step:
//! CREATE_SKETCH and PULL_SKETCH, NEW_TREE (gradients, binning, node
//! index), then per layer BUILD_HISTOGRAM (the configured kernel), the
//! histogram push (wire quantizer, dense or sparse frames), sibling
//! derivation, FIND_SPLIT and SPLIT_TREE, and finally the score update.
//! Every input to the model — the per-worker stochastic-rounding streams,
//! the push order, the kernel choice — is the trainer's, so the replayed
//! tree must equal the trainer's tree 0 bit for bit; [`same_bits`] checks
//! that, which is what makes the spans time the path the trainer runs.

use std::hint::black_box;

use rand::rngs::StdRng;
use rand::SeedableRng;

use dimboost_core::binned::BinnedShard;
use dimboost_core::fused::{build_layer, build_layer_quantized, positions_from_index};
use dimboost_core::hist_build::{
    acc_mode_for, build_quantized, build_row, effective_quant_bits, new_row, QuantBinned,
    QuantizedGrads,
};
use dimboost_core::parallel::{build_row_batched, BatchConfig};
use dimboost_core::{
    loss_for, FeatureMeta, FinalSplit, GbdtConfig, GradPair, LossKind, Node, NodeIndex,
    PullSplitResult, SplitDecision, Tree,
};
use dimboost_data::Dataset;
use dimboost_ps::quantize::quantize_row;
use dimboost_ps::split::best_split_in_range;
use dimboost_ps::{ParameterServer, PsConfig};
use dimboost_sketch::{propose_candidates, GkSketch, SplitCandidates};

use crate::spans::Tracer;

/// Spans of the sketch phases, which run once per training run rather
/// than once per tree.
pub(crate) const SKETCH_SPANS: [&str; 3] = ["sketch.build", "sketch.merge", "sketch.candidates"];

/// One simulated worker's tree-0 state.
struct Worker {
    grads: Vec<GradPair>,
    preds: Vec<f32>,
    index: NodeIndex,
    binned: Option<BinnedShard>,
    qbinned: Option<QuantBinned>,
    qgrads: Option<QuantizedGrads>,
    rng: StdRng,
}

/// The trainer paths the replay reproduces. Configurations outside them
/// (no node index, row subsampling, softmax) are refused rather than
/// replayed approximately.
fn check_supported(config: &GbdtConfig) -> Result<(), String> {
    if !config.opts.node_index {
        return Err("replay needs the node-to-instance index".into());
    }
    if config.instance_sample_ratio < 1.0 {
        return Err("replay does not reproduce row subsampling".into());
    }
    if matches!(config.loss, LossKind::Softmax { .. }) {
        return Err("replay covers scalar losses only".into());
    }
    Ok(())
}

/// Per-feature quantile sketches of one worker's shard (the trainer's
/// CREATE_SKETCH body).
fn local_sketches(shard: &Dataset, num_features: usize, eps: f64) -> Vec<GkSketch> {
    let mut sketches: Vec<GkSketch> = (0..num_features).map(|_| GkSketch::new(eps)).collect();
    for (row, _) in shard.iter_rows() {
        for (f, v) in row.iter() {
            sketches[f as usize].insert(v);
        }
    }
    for s in &mut sketches {
        s.flush();
    }
    sketches
}

/// Replays tree 0 of `train_distributed(shards, config, ps_config)` and
/// returns the tree it grows.
pub fn replay_tree0(
    shards: &[Dataset],
    config: &GbdtConfig,
    ps_config: PsConfig,
    t: &mut Tracer,
) -> Result<Tree, String> {
    config.validate()?;
    check_supported(config)?;
    let w = shards.len();
    let num_features = shards.first().ok_or("no shards")?.num_features();
    let loss = loss_for(config.loss);
    let params = config.split_params();
    let opts = config.opts;
    let root = t.begin("replay");
    let ps = ParameterServer::new(num_features, ps_config);

    // ---- CREATE_SKETCH / PULL_SKETCH ---------------------------------------
    let worker_eps = config.sketch_eps / ((w as f64).log2() + 2.0).max(2.0);
    let locals: Vec<Vec<GkSketch>> = t.time("sketch.build", || {
        shards
            .iter()
            .map(|s| local_sketches(s, num_features, worker_eps))
            .collect()
    });
    let mut merged = t.time("sketch.merge", || {
        for local in locals {
            ps.push_sketches(local);
        }
        ps.pull_sketches()
    });
    let candidates: Vec<SplitCandidates> = t.time("sketch.candidates", || {
        merged
            .iter_mut()
            .map(|s| propose_candidates(s, config.num_candidates))
            .collect()
    });

    // ---- NEW_TREE ----------------------------------------------------------
    let tree_span = t.begin("tree");
    let meta = t.time("ps.control", || {
        ps.publish_sampled(FeatureMeta::sample_features(
            num_features,
            config.feature_sample_ratio,
            config.seed,
            0,
        ));
        let meta = FeatureMeta::new(ps.pull_sampled(), &candidates);
        ps.init_tree(meta.layout().clone());
        meta
    });
    let mut tree = Tree::new(config.max_depth);
    let capacity = tree.capacity();
    let row_len = meta.layout().row_len();
    let mut workers: Vec<Worker> = t.time("core.grad", || {
        shards
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let preds = vec![0.0f32; s.num_rows()];
                let grads = (0..s.num_rows())
                    .map(|r| loss.grad(preds[r], s.label(r)))
                    .collect();
                Worker {
                    grads,
                    preds,
                    index: NodeIndex::new(0, 0),
                    binned: None,
                    qbinned: None,
                    qgrads: None,
                    rng: StdRng::seed_from_u64(config.seed ^ ((i as u64 + 1) << 32)),
                }
            })
            .collect()
    });
    if opts.pre_binning || opts.fused_layer || opts.quantized_hist {
        t.time("core.bin", || {
            for (wk, shard) in workers.iter_mut().zip(shards) {
                let binned = BinnedShard::build(shard, &meta);
                if opts.quantized_hist {
                    wk.qbinned = Some(QuantBinned::build(&binned, &meta));
                    let bits = effective_quant_bits(config.quant_hist_bits, shard.num_rows());
                    wk.qgrads = Some(QuantizedGrads::quantize(&wk.grads, bits));
                }
                wk.binned = Some(binned);
            }
        });
    }
    t.time("core.node_index", || {
        for (wk, shard) in workers.iter_mut().zip(shards) {
            wk.index = NodeIndex::new(shard.num_rows(), capacity);
        }
    });

    let mut active: Vec<u32> = vec![0];
    let mut pairs: Vec<(u32, u32, u32)> = Vec::new();
    for depth in 0..config.max_depth {
        if active.is_empty() {
            break;
        }
        let layer = t.begin("layer");
        let use_subtraction = opts.hist_subtraction && !pairs.is_empty();
        let build_nodes: Vec<u32> = if use_subtraction {
            pairs.iter().map(|&(_, small, _)| small).collect()
        } else {
            active.clone()
        };

        // ---- BUILD_HISTOGRAM ------------------------------------------------
        let use_fused = opts.fused_layer
            && (opts.quantized_hist
                || build_nodes
                    .len()
                    .saturating_mul(row_len)
                    .saturating_mul(4)
                    .saturating_mul(config.num_threads.max(1))
                    <= config.fused_block_budget);
        let mut local_rows: Vec<Vec<(u32, Vec<f32>)>> = Vec::with_capacity(w);
        for (wk, shard) in workers.iter().zip(shards) {
            if t.enabled() {
                let entries: usize = build_nodes
                    .iter()
                    .flat_map(|&n| wk.index.instances(n))
                    .map(|&i| shard.row(i as usize).nnz())
                    .sum();
                t.count("core.hist_entries", entries as u64);
            }
            let rows = t.time("core.hist_build", || {
                build_histograms(shard, wk, &build_nodes, &meta, config, use_fused)
            });
            local_rows.push(rows);
        }

        // ---- Histogram push -------------------------------------------------
        for (stripe, (wk, rows)) in workers.iter_mut().zip(local_rows).enumerate() {
            let stripe = stripe as u32;
            for (node, row) in rows {
                if opts.low_precision {
                    let q = t.time("ps.quantize", || {
                        quantize_row(&row, meta.layout(), config.compress_bits, &mut wk.rng)
                    });
                    if t.enabled() {
                        t.count("ps.quantize_elems", row.len() as u64);
                        let nonzero = row.iter().filter(|&&v| v != 0.0).count();
                        t.count("ps.quantize_nonzero", nonzero as u64);
                    }
                    t.time("ps.push", || {
                        if opts.sparse_wire {
                            ps.push_histogram_quantized_sparse(stripe, node, &q);
                        } else {
                            ps.push_histogram_quantized(node, &q);
                        }
                    });
                } else {
                    t.time("ps.push", || {
                        if opts.sparse_wire {
                            ps.push_histogram_sparse(stripe, node, &row);
                        } else {
                            ps.push_histogram(node, &row);
                        }
                    });
                }
                t.count("ps.push_calls", 1);
            }
        }
        if use_subtraction {
            t.time("ps.derive_sibling", || {
                for &(parent, small, big) in &pairs {
                    ps.derive_sibling(parent, small, big);
                    ps.clear_node(parent);
                }
            });
        }

        // ---- FIND_SPLIT -----------------------------------------------------
        for &node in &active {
            let result: PullSplitResult = t.time("ps.pull_split", || {
                if opts.two_phase_split {
                    ps.pull_split(node, &params)
                } else {
                    let row = ps.pull_histogram(node);
                    best_split_in_range(&row, meta.layout(), 0..meta.num_sampled(), None, &params)
                }
            });
            let split = result.best.map(|s| FinalSplit {
                feature: meta.global_id(s.feature as usize),
                threshold: meta.threshold(s.feature as usize, s.bucket as usize),
                gain: s.gain,
                left_g: s.left_g,
                left_h: s.left_h,
                default_left: s.default_left,
            });
            t.time("ps.control", || {
                ps.publish_decision(SplitDecision {
                    node,
                    split,
                    total_g: result.total_g,
                    total_h: result.total_h,
                })
            });
        }

        // ---- SPLIT_TREE -----------------------------------------------------
        let decisions = t.time("ps.control", || ps.pull_decisions(&active));
        let mut next_active = Vec::new();
        let mut next_pairs = Vec::new();
        for decision in &decisions {
            let node = decision.node;
            let mut keep_row = false;
            match decision.split {
                Some(split) => {
                    tree.set_internal_full(
                        node,
                        split.feature,
                        split.threshold,
                        split.gain as f32,
                        split.default_left,
                    );
                    let (lc, rc) = (Tree::left_child(node), Tree::right_child(node));
                    t.time("core.node_index", || {
                        for (wk, shard) in workers.iter_mut().zip(shards) {
                            wk.index.split(node, lc, rc, |i| {
                                split.goes_left(shard.row(i as usize).get(split.feature))
                            });
                        }
                    });
                    if depth + 1 < config.max_depth {
                        next_active.push(lc);
                        next_active.push(rc);
                        if opts.hist_subtraction {
                            let right_h = decision.total_h - split.left_h;
                            let (small, big) = if split.left_h <= right_h {
                                (lc, rc)
                            } else {
                                (rc, lc)
                            };
                            next_pairs.push((node, small, big));
                            keep_row = true;
                        }
                    } else {
                        let (gl, hl) = (split.left_g, split.left_h);
                        let (gr, hr) = (decision.total_g - gl, decision.total_h - hl);
                        tree.set_leaf(lc, params.leaf_weight(gl, hl) as f32);
                        tree.set_leaf(rc, params.leaf_weight(gr, hr) as f32);
                    }
                }
                None => {
                    tree.set_leaf(
                        node,
                        params.leaf_weight(decision.total_g, decision.total_h) as f32,
                    );
                }
            }
            if !keep_row {
                t.time("ps.control", || ps.clear_node(node));
            }
        }
        t.time("ps.control", || ps.clear_decisions());
        active = next_active;
        pairs = next_pairs;
        t.end(layer);
    }

    // ---- FINISH: score update and round loss --------------------------------
    let eta = config.learning_rate;
    t.time("core.score_update", || {
        for wk in &mut workers {
            for leaf in 0..capacity as u32 {
                if let Node::Leaf { weight } = tree.node(leaf) {
                    for &i in wk.index.instances(leaf) {
                        wk.preds[i as usize] += eta * weight;
                    }
                }
            }
        }
    });
    t.time("core.train_loss", || {
        let total: f64 = workers
            .iter()
            .zip(shards)
            .map(|(wk, s)| {
                (0..s.num_rows())
                    .map(|i| loss.loss(wk.preds[i], s.label(i)))
                    .sum::<f64>()
            })
            .sum();
        black_box(total);
    });
    t.end(tree_span);
    t.end(root);
    Ok(tree)
}

/// One worker's histogram rows for `build_nodes`, through the kernel the
/// trainer selects for this configuration.
fn build_histograms(
    shard: &Dataset,
    wk: &Worker,
    build_nodes: &[u32],
    meta: &FeatureMeta,
    config: &GbdtConfig,
    use_fused: bool,
) -> Vec<(u32, Vec<f32>)> {
    let opts = config.opts;
    let row_len = meta.layout().row_len();
    let binned = || wk.binned.as_ref().expect("binned shard built in NEW_TREE");
    let qbinned = || wk.qbinned.as_ref().expect("pair view built in NEW_TREE");
    let qgrads = || {
        wk.qgrads
            .as_ref()
            .expect("gradient codes built in NEW_TREE")
    };
    if use_fused {
        let positions = positions_from_index(&wk.index, build_nodes, shard.num_rows());
        let block = if opts.quantized_hist {
            build_layer_quantized(
                binned(),
                qbinned(),
                &positions,
                qgrads(),
                meta,
                config.batch_size,
                config.num_threads,
            )
            .0
        } else {
            build_layer(
                binned(),
                &positions,
                &wk.grads,
                meta,
                config.batch_size,
                config.num_threads,
            )
        };
        return build_nodes
            .iter()
            .enumerate()
            .map(|(slot, &node)| (node, block[slot * row_len..(slot + 1) * row_len].to_vec()))
            .collect();
    }
    build_nodes
        .iter()
        .map(|&node| {
            let instances = wk.index.instances(node);
            let row = if opts.quantized_hist {
                let mode = acc_mode_for(instances.len() as u64, qgrads().max_code());
                build_quantized(binned(), qbinned(), instances, qgrads(), meta, mode)
            } else if let Some(binned) = &wk.binned {
                if opts.parallel_batch {
                    binned.build_row_batched(
                        instances,
                        &wk.grads,
                        meta,
                        config.batch_size,
                        config.num_threads,
                    )
                } else {
                    let mut out = new_row(meta);
                    binned.build_into(instances, &wk.grads, &mut out);
                    out
                }
            } else if opts.parallel_batch {
                let bc = BatchConfig {
                    batch_size: config.batch_size,
                    threads: config.num_threads,
                    sparse: opts.sparse_hist,
                };
                build_row_batched(shard, instances, &wk.grads, meta, &bc)
            } else {
                build_row(shard, instances, &wk.grads, meta, opts.sparse_hist)
            };
            (node, row)
        })
        .collect()
}

/// Whether two trees are equal bit for bit: same shape, split features,
/// default directions, and the same bits in every threshold, gain and
/// leaf weight.
pub fn same_bits(a: &Tree, b: &Tree) -> bool {
    a.max_depth() == b.max_depth()
        && a.nodes().len() == b.nodes().len()
        && a.nodes().iter().zip(b.nodes()).all(|pair| match pair {
            (Node::Unused, Node::Unused) => true,
            (Node::Leaf { weight: x }, Node::Leaf { weight: y }) => x.to_bits() == y.to_bits(),
            (
                Node::Internal {
                    feature: f1,
                    threshold: t1,
                    gain: g1,
                    default_left: d1,
                },
                Node::Internal {
                    feature: f2,
                    threshold: t2,
                    gain: g2,
                    default_left: d2,
                },
            ) => {
                f1 == f2 && t1.to_bits() == t2.to_bits() && g1.to_bits() == g2.to_bits() && d1 == d2
            }
            _ => false,
        })
}
