//! The metric tables: every name the benchmark prints, with its unit and
//! direction. `BENCHMARK.json` lists exactly these (checked by the
//! self-tests).

/// One metric's declaration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Whether higher values are better.
    pub higher_is_better: bool,
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: true,
    }
}

/// End-to-end metrics, reported by every untraced run.
pub const END_TO_END: &[MetricDef] = &[
    hi("jobs_per_s", "1/s"),
    lo("latency_p50_ms", "ms"),
    lo("latency_p90_ms", "ms"),
    hi("slo_met_frac", "fraction"),
    lo("setup_s", "s"),
    lo("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, reported by every traced run.
pub const PER_LAYER: &[MetricDef] = &[
    // Serving path.
    lo("client.serve_overhead_us", "us"),
    lo("wire.encode_us_per_job", "us"),
    lo("wire.assemble_us_per_job", "us"),
    lo("wire.bytes_per_job", "bytes"),
    lo("reactor.wakeups_per_job", "count"),
    hi("reactor.batched_frac", "fraction"),
    lo("reactor.write_queue_high_water_bytes", "bytes"),
    lo("tenant.queue_ms_p50", "ms"),
    lo("tenant.queue_ms_p90", "ms"),
    lo("tenant.degraded_frac", "fraction"),
    lo("reactor.dispatch_depth_max", "count"),
    lo("client.generator_lag_ms_p90", "ms"),
    // Execution.
    lo("exec.served_ms", "ms"),
    lo("exec.direct_ms", "ms"),
    lo("telemetry.tax_ratio", "ratio"),
    lo("memory_unit.probe_ms", "ms"),
    lo("memory_unit.stall_cycles_per_job", "cycles"),
    lo("memory_unit.escalations_per_job", "count"),
    lo("memory_unit.overflow_events_per_job", "count"),
    // Datapath.
    lo("arch.frame_ms.raw", "ms"),
    lo("arch.frame_ms.haar", "ms"),
    lo("arch.frame_ms.haar2", "ms"),
    lo("arch.frame_ms.legall", "ms"),
    lo("arch.push_row_us", "us"),
    lo("codec.encode_ns_per_col.raw", "ns"),
    lo("codec.encode_ns_per_col.haar", "ns"),
    lo("codec.encode_ns_per_col.haar2", "ns"),
    lo("codec.encode_ns_per_col.legall", "ns"),
    lo("codec.decode_ns_per_col.raw", "ns"),
    lo("codec.decode_ns_per_col.haar", "ns"),
    lo("codec.decode_ns_per_col.haar2", "ns"),
    lo("codec.decode_ns_per_col.legall", "ns"),
    lo("codec.encode_ns_per_col.haar-t4", "ns"),
    lo("kernels.apply_ns_per_px.box", "ns"),
    lo("kernels.apply_ns_per_px.gaussian", "ns"),
    lo("kernels.apply_ns_per_px.sobel", "ns"),
    lo("window.shift_ns_per_col", "ns"),
    lo("wavelet.haar_fwd_ns_per_col", "ns"),
    lo("wavelet.haar_inv_ns_per_col", "ns"),
    lo("bitstream.nbits_ns_per_col", "ns"),
    lo("bitstream.pack_ns_per_col", "ns"),
    lo("bitstream.unpack_ns_per_col", "ns"),
    lo("arch.unattributed_frac", "fraction"),
    lo("shard.run_ms", "ms"),
    hi("pool.worker_items_frac", "fraction"),
    lo("pool.steals_per_batch", "count"),
    lo("integral.analyze_ms", "ms"),
    lo("sim.bytes_packed.raw", "bytes"),
    lo("sim.bytes_packed.haar", "bytes"),
    lo("sim.bytes_packed.haar2", "bytes"),
    lo("sim.bytes_packed.legall", "bytes"),
    hi("sim.memory_saving_pct.raw", "%"),
    hi("sim.memory_saving_pct.haar", "%"),
    hi("sim.memory_saving_pct.haar2", "%"),
    hi("sim.memory_saving_pct.legall", "%"),
    // The benchmark itself.
    lo("bench.tracing_overhead_frac", "fraction"),
    hi("bench.calibration_mops", "Mops/s"),
];
