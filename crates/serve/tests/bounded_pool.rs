//! The server's block pool is bounded by construction: a viewer flying
//! over two timesteps of one layout through a pool that holds half a
//! timestep never finds it over its cap, never has demand shed, and never
//! makes the server read a block it still holds.

use std::collections::HashSet;
use std::sync::Arc;
use viz_fetch::{BlockPool, FetchConfig, FetchEngine, VirtualClock, VirtualClockSource};
use viz_serve::{ClientTier, InProcServer, ServeClient, ServeConfig, Server};
use viz_volume::{BlockId, BlockKey, BrickLayout, Dims3, MemBlockStore};

#[test]
fn a_flight_over_two_timesteps_stays_within_the_cap() {
    let layout = BrickLayout::new(Dims3::new(32, 32, 32), Dims3::new(8, 8, 8));
    let per_step = layout.num_blocks() as u32;
    let cap = per_step as usize / 2;
    let universe: Vec<BlockKey> =
        (0..2u16).flat_map(|t| layout.block_ids().map(move |id| BlockKey::new(0, t, id))).collect();
    let store = MemBlockStore::new();
    for k in &universe {
        store.insert(*k, vec![f32::from(k.time) * 1000.0 + k.block.0 as f32; 16]);
    }
    let src =
        Arc::new(VirtualClockSource::uniform(Arc::new(store), Arc::new(VirtualClock::new()), 10));
    let pool = Arc::new(BlockPool::with_capacity(cap));
    let engine = FetchEngine::spawn(
        src.clone(),
        pool.clone(),
        FetchConfig { workers: 0, ..FetchConfig::default() },
    );
    let server = Server::new(Arc::new(engine), ServeConfig::default());
    let mut inproc = InProcServer::new(server.clone());
    // The tier holds the last frame only, so the viewer re-asks the server
    // for every block it saw before.
    let mut viewer = ServeClient::new(inproc.connect()).with_tier(ClientTier::with_capacity(0));
    viewer.send_open("viewer").unwrap();
    inproc.tick();
    viewer.recv_open().unwrap();

    // Each frame demands a window of 8 blocks and predicts the 4 past it;
    // the window moves 4 blocks a frame, two laps over each timestep.
    let window = |t: u16, start: u32, len: u32| {
        (start..start + len).map(|i| BlockKey::new(0, t, BlockId(i % per_step))).collect::<Vec<_>>()
    };
    let mut frames = Vec::new();
    for t in 0..2u16 {
        for start in (0..2 * per_step).step_by(4) {
            frames.push((t, start));
        }
    }
    for (frame, &(t, start)) in frames.iter().enumerate() {
        let resident: HashSet<BlockKey> =
            universe.iter().copied().filter(|&k| pool.contains(k)).collect();
        let read_before = src.reads();

        let demand = window(t, start, 8);
        let prefetch: Vec<(BlockKey, f64)> =
            window(t, start + 8, 4).into_iter().map(|k| (k, 1.0)).collect();
        viewer.send_fetch(frame as u64, demand.clone(), prefetch).unwrap();
        inproc.tick();
        let got = viewer.recv_fetch().unwrap();

        assert!(pool.len() <= cap, "frame {frame}: {} resident over a cap of {cap}", pool.len());
        assert_eq!(got.blocks.len(), demand.len(), "frame {frame}: a demand slot went missing");
        for (slot, k) in got.blocks.iter().zip(&demand) {
            assert_eq!(slot.key, *k, "frame {frame}");
            let data = slot.result.as_ref().unwrap_or_else(|e| panic!("frame {frame}: {e:?}"));
            assert_eq!(data[0], f32::from(k.time) * 1000.0 + k.block.0 as f32, "frame {frame}");
        }
        let m = server.metrics();
        assert_eq!(m.prefetch_shed, 0, "frame {frame}: nothing is under pressure");
        assert_eq!((m.demand_served, m.demand_errors), (m.demand_admitted, 0), "frame {frame}");

        let reads = &src.read_order()[read_before..];
        let mut read_now = HashSet::new();
        for k in reads {
            assert!(!resident.contains(k), "frame {frame}: {k:?} was read while resident");
            assert!(read_now.insert(*k), "frame {frame}: {k:?} was read twice");
        }
    }
    // The flight outgrew the pool: the second lap re-read what the first
    // lap's tail evicted.
    assert_eq!(pool.len(), cap);
    assert!(src.reads() > universe.len(), "{} reads of {} blocks", src.reads(), universe.len());
}
