//! Counterpart of Fig 8: the marginal cost Butterfly adds to a live mining
//! pipeline — mining alone vs mining+basic vs mining+optimized — and the
//! attack-analysis cost that a detecting-then-removing design would pay
//! instead (the paper's motivating comparison in §I) — and, at the serve
//! edge, what decoding one 250-transaction ingest costs in each wire
//! encoding before the pipeline sees it.

use bfly_bench::bench;
use bfly_common::{BinaryFrame, FrameCodec, Inbound, ItemSet, SlidingWindow};
use bfly_core::{BiasScheme, PrivacySpec, PublicationHistory, Publisher};
use bfly_datagen::DatasetProfile;
use bfly_inference::attack::find_intra_window_breaches;
use bfly_mining::closed::expand_closed;
use bfly_mining::{MinerBackend, MomentMiner};
use bfly_serve::Request;

struct Pipe {
    window: SlidingWindow,
    miner: MomentMiner,
    source: bfly_datagen::StreamSource,
}

fn warm_pipe(window_size: usize, c: u64) -> Pipe {
    let mut source = DatasetProfile::WebView1.source(41);
    let mut window = SlidingWindow::new(window_size);
    let mut miner = MomentMiner::new(c);
    for _ in 0..window_size {
        miner.apply(&window.slide(source.next_transaction()));
    }
    Pipe {
        window,
        miner,
        source,
    }
}

/// `next_inbound` over WebView1 ingests of 250 transactions, binary frames
/// and the NDJSON lines a JSON client writes for the same batches, as a
/// server's connection decodes them into chunks.
fn bench_frame_decode() {
    let batches: Vec<Vec<ItemSet>> = DatasetProfile::WebView1
        .source(41)
        .take_vec(16_000)
        .chunks(250)
        .map(|part| part.iter().map(|t| t.items().clone()).collect())
        .collect();
    let encode = |json: bool, batch: &Vec<ItemSet>| -> Vec<u8> {
        let (stream, batch) = ("t0".to_string(), batch.clone());
        if json {
            format!("{}\n", Request::Ingest { stream, batch }.to_json()).into_bytes()
        } else {
            BinaryFrame::Ingest { stream, batch }.encode()
        }
    };
    for (name, json) in [("binary", false), ("ndjson", true)] {
        let frames: Vec<Vec<u8>> = batches.iter().map(|b| encode(json, b)).collect();
        let mut codec = FrameCodec::new();
        let mut next = frames.iter().cycle();
        bench(&format!("frame_decode/{name}_ingest_250"), || {
            codec.extend(next.next().expect("cycled"));
            match codec.next_inbound() {
                Ok(Some(Inbound::Ingest { chunk, .. })) => chunk.len(),
                other => panic!("not an ingest: {other:?}"),
            }
        });
    }
}

fn main() {
    bench_frame_decode();

    let spec = PrivacySpec::new(25, 5, 0.04, 1.0);

    {
        let mut p = warm_pipe(2000, 25);
        bench("pipeline_slide_2000/mining_only", || {
            let delta = p.window.slide(p.source.next_transaction());
            p.miner.apply(&delta);
            p.miner.closed_frequent()
        });
    }

    {
        let mut p = warm_pipe(2000, 25);
        let mut publisher = Publisher::new(spec, BiasScheme::Basic, 3);
        let mut history = PublicationHistory::default();
        bench("pipeline_slide_2000/mining_plus_basic", || {
            let delta = p.window.slide(p.source.next_transaction());
            p.miner.apply(&delta);
            let closed = p.miner.closed_frequent();
            let release = publisher.publish(&closed, &history);
            history.record(&release, p.window.stream_len());
            release
        });
    }

    {
        let mut p = warm_pipe(2000, 25);
        let mut publisher = Publisher::new(
            spec,
            BiasScheme::Hybrid {
                lambda: 0.4,
                gamma: 2,
            },
            3,
        );
        let mut history = PublicationHistory::default();
        bench("pipeline_slide_2000/mining_plus_opt", || {
            let delta = p.window.slide(p.source.next_transaction());
            p.miner.apply(&delta);
            let closed = p.miner.closed_frequent();
            let release = publisher.publish(&closed, &history);
            history.record(&release, p.window.stream_len());
            release
        });
    }

    // What the reactive alternative would pay per window: full breach
    // detection (the paper's argument for the proactive design).
    {
        let mut p = warm_pipe(2000, 25);
        bench("pipeline_slide_2000/detecting_then_removing", || {
            let delta = p.window.slide(p.source.next_transaction());
            p.miner.apply(&delta);
            let closed = p.miner.closed_frequent();
            let full = expand_closed(&closed);
            find_intra_window_breaches(full.as_map(), 5)
        });
    }
}
