//! The metric names and units the benchmark reports, as `BENCHMARK.json` lists them.

/// End-to-end metrics (untraced runs): `(name, unit)`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("samples_per_s", "samples/s"),
    ("round_p50_ms", "ms"),
    ("round_tail_ms", "ms"),
    ("final_accuracy", "share"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "share"),
];

/// Per-layer metrics (traced runs): `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("tensor.gemm_us", "us"),
    ("tensor.im2col_t_us", "us"),
    ("tensor.col2im_t_us", "us"),
    ("nn.resnet.forward_ms", "ms"),
    ("nn.resnet.backward_ms", "ms"),
    ("nn.alexnet.forward_ms", "ms"),
    ("nn.alexnet.backward_ms", "ms"),
    ("nn.eval_ms", "ms"),
    ("nn.build_ms", "ms"),
    ("data.generate_ms", "ms"),
    ("data.next_batch_us", "us"),
    ("worker.compute_ms", "ms"),
    ("worker.compute_share", "share"),
    ("wire.encode_push_us", "us"),
    ("wire.decode_push_us", "us"),
    ("wire.encode_pull_reply_us", "us"),
    ("wire.decode_pull_reply_us", "us"),
    ("net.push_send_us", "us"),
    ("net.pull_us", "us"),
    ("net.reply_wait_us", "us"),
    ("net.bytes_per_round", "bytes"),
    ("net.frames_per_round", "count"),
    ("net.delta_pull_share", "share"),
    ("ps.gate_hold_ms", "ms"),
    ("ps.handle_push_us", "us"),
    ("ps.decide_us", "us"),
    ("ps.blocked_share", "share"),
    ("ps.credits_per_push", "count"),
    ("ps.staleness_mean", "count"),
    ("ps.staleness_max", "count"),
    ("ps.wait_share", "share"),
    ("server.busy_share", "share"),
    ("server.self_us_per_push", "us"),
    ("coord.grant_rtt_us", "us"),
    ("coord.self_us_per_push", "us"),
    ("shard.self_us_per_slice", "us"),
    ("shard.self_us_per_pull", "us"),
    ("closure.residual_share", "share"),
    ("trace.overhead_share", "share"),
];

/// The unit of a reported metric, end-to-end or per-layer.
pub fn unit(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}
