//! Criterion microbenches on the simulator's hot paths: channel sampling,
//! ESNR computation, the future event list, cyclic-queue operations, the
//! de-duplication filter, and a full small end-to-end run.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use wgtt_core::cyclic::CyclicQueue;
use wgtt_core::dedup::Deduplicator;
use wgtt_core::{FlowSpec, Scenario, SystemConfig};
use wgtt_net::{ClientId, FlowId, PacketFactory, Payload};
use wgtt_phy::{controller_esnr_db, DeploymentConfig, LinkConfig, Position, WirelessLink};
use wgtt_sim::{EventQueue, SimRng, SimTime};

fn bench_channel(c: &mut Criterion) {
    let dep = DeploymentConfig::default().build();
    let mut rng = SimRng::new(1);
    let link = WirelessLink::new(dep.aps[0], LinkConfig::default(), &mut rng);
    let pos = Position::new(0.0, dep.lane_near_y, 1.5);

    c.bench_function("phy/csi_snapshot", |b| {
        let mut t = 0u64;
        b.iter(|| {
            t += 1;
            black_box(link.csi(SimTime::from_micros(t * 700), &pos, 6.7))
        })
    });

    c.bench_function("phy/esnr_from_csi", |b| {
        let csi = link.csi(SimTime::from_millis(3), &pos, 6.7);
        b.iter(|| black_box(controller_esnr_db(&csi)))
    });

    c.bench_function("phy/capacity_bps", |b| {
        let per = wgtt_phy::PerModel::default();
        let csi = link.csi(SimTime::from_millis(3), &pos, 6.7);
        b.iter(|| black_box(per.capacity_bps(wgtt_phy::GuardInterval::Short, &csi, 1500)))
    });
}

fn bench_structures(c: &mut Criterion) {
    c.bench_function("sim/event_queue_push_pop", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..256u64 {
                q.push(SimTime::from_micros((i * 37) % 1000), i);
            }
            while let Some(ev) = q.pop() {
                black_box(ev);
            }
        })
    });

    c.bench_function("core/cyclic_insert_pop", |b| {
        let mut factory = PacketFactory::new();
        let packets: Vec<_> = (0..256u16)
            .map(|i| {
                let mut p = factory.make(
                    ClientId(0),
                    FlowId(0),
                    1500,
                    SimTime::ZERO,
                    Payload::Udp { seq: i as u64 },
                );
                p.index = Some(i);
                p
            })
            .collect();
        b.iter(|| {
            let mut q = CyclicQueue::new();
            for p in &packets {
                q.insert(p.clone());
            }
            while let Some(p) = q.pop_head() {
                black_box(p);
            }
        })
    });

    c.bench_function("core/dedup_check", |b| {
        let mut d = Deduplicator::default();
        let mut k = 0u64;
        b.iter(|| {
            k += 1;
            black_box(d.check_key(k % 20_000))
        })
    });
}

fn bench_end_to_end(c: &mut Criterion) {
    let mut g = c.benchmark_group("system");
    g.sample_size(10);
    g.bench_function("drive_by_1s_udp", |b| {
        b.iter(|| {
            let mut s = Scenario::single_drive(
                SystemConfig::default(),
                15.0,
                vec![FlowSpec::DownlinkUdp {
                    rate_bps: 20_000_000,
                    payload: 1472,
                }],
                9,
            );
            s.duration = wgtt_sim::SimDuration::from_secs(1);
            black_box(wgtt_core::run(s))
        })
    });
    g.finish();
}

criterion_group!(benches, bench_channel, bench_structures, bench_end_to_end);
criterion_main!(benches);
