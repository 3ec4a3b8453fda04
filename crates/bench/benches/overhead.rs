//! Counterpart of Fig 8: the marginal cost Butterfly adds to a live mining
//! pipeline — mining alone vs mining+basic vs mining+optimized — and the
//! attack-analysis cost that a detecting-then-removing design would pay
//! instead (the paper's motivating comparison in §I).

use bfly_bench::bench;
use bfly_common::SlidingWindow;
use bfly_core::{BiasScheme, PrivacySpec, Publisher};
use bfly_datagen::DatasetProfile;
use bfly_inference::attack::find_intra_window_breaches;
use bfly_mining::closed::expand_closed;
use bfly_mining::{MinerBackend, MomentMiner};

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

fn main() {
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
        bench("pipeline_slide_2000/mining_plus_basic", || {
            let delta = p.window.slide(p.source.next_transaction());
            p.miner.apply(&delta);
            let closed = p.miner.closed_frequent();
            publisher.publish(&closed)
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
        bench("pipeline_slide_2000/mining_plus_opt", || {
            let delta = p.window.slide(p.source.next_transaction());
            p.miner.apply(&delta);
            let closed = p.miner.closed_frequent();
            publisher.publish(&closed)
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
