//! The measurement oracle: per-millisecond ESNR ranking of every AP for
//! switching accuracy and the capacity-loss integral (Table 2, Figs 4
//! and 21).
//!
//! It is opt-in through `SystemConfig::oracle`. `prime_events` always
//! schedules the first tick; with the oracle off that tick returns at
//! once and never re-arms. It reads system state and writes only its own
//! fields, so everything else is byte-identical with it on or off.

use super::*;

impl WgttWorld {
    pub(super) fn on_accuracy_tick(&mut self, ctx: &mut Ctx<'_, Ev>) {
        if !self.cfg.oracle {
            return;
        }
        let now = ctx.now();
        for c in 0..self.clients.len() {
            if self.departed[c] {
                continue;
            }
            // Oracle: instantaneous ESNR argmax over in-range APs. Memos
            // are kept for the winner and the serving AP so the capacity
            // integral below reuses the ranking's 16-QAM integrations, and
            // an AP whose best tone — an exact ceiling on its ESNR — sits
            // at or below the incumbent is skipped without integrating
            // (`e > b` would have been false regardless).
            let serving = self.serving_of(c);
            // Visit last tick's winner first: channel coherence makes it
            // the likely incumbent, so the ceiling prunes below discard
            // almost every other AP before any ESNR integration. Visit
            // order cannot change the outcome — the update rule is the
            // exact lexicographic argmax (highest ESNR, lowest AP id on
            // exact ties) that the plain ascending scan computes.
            let warm = self.last_oracle[c];
            let mut best: Option<(usize, f64)> = None;
            let mut best_esnr: Option<EsnrMemo> = None;
            let mut serving_esnr: Option<EsnrMemo> = None;
            for ap in warm
                .into_iter()
                .chain((0..self.aps.len()).filter(|&a| Some(a) != warm))
            {
                if self.ap_down[ap] || !self.in_radio_range(ap, c, now) {
                    continue;
                }
                let is_serving = serving == Some(ap);
                // Prunable once even a ceiling on this AP's ESNR cannot
                // win the lexicographic argmax against the incumbent.
                let cannot_beat =
                    |bound: f64| best.is_some_and(|(bi, b)| bound < b || (bound == b && ap > bi));
                if !is_serving
                    && cannot_beat(
                        self.mean_snr(ap, c, now) + self.links[ap][c].peak_tone_headroom_db(),
                    )
                {
                    // Static ceiling: no fading realization lifts a tone
                    // past mean + headroom, so skip the whole channel
                    // evaluation.
                    continue;
                }
                let mut memo = EsnrMemo::new(&self.csi(ap, c, now));
                if !is_serving && cannot_beat(memo.best_tone_db()) {
                    continue;
                }
                let e = memo.esnr_db(Modulation::Qam16);
                let wins = best.map_or(true, |(bi, b)| e > b || (e == b && ap < bi));
                if wins {
                    best = Some((ap, e));
                }
                if is_serving {
                    // The serving memo doubles as the winner's when the
                    // serving AP is the oracle choice.
                    serving_esnr = Some(memo);
                } else if wins {
                    best_esnr = Some(memo);
                }
            }
            self.last_oracle[c] = best.map(|(ap, _)| ap);
            if let Some((oracle, _)) = best {
                // Capacity-loss integral (Figs 4, 21): the best link's
                // instantaneous capacity minus what the serving link offers.
                let gi = self.cfg.gi;
                let oracle_is_serving = serving == Some(oracle);
                // Invariant: the ranking loop above stores a memo for
                // whichever arm won; `best` being `Some` proves the
                // corresponding memo was kept.
                let mut oracle_esnr = if oracle_is_serving {
                    serving_esnr.take()
                } else {
                    best_esnr.take()
                }
                .expect("memo kept with best");
                let best_cap = self.cfg.per_model.capacity_with(&mut oracle_esnr, gi, 1500);
                let serv_cap = match serving {
                    Some(s) if s == oracle => best_cap,
                    // `capacity_bps` is exactly `capacity_with` on a fresh
                    // memo of the same (cached) CSI, so reusing the
                    // ranking's serving memo is bit-identical; the fallback
                    // covers a serving AP that is down or out of range.
                    Some(s) => match serving_esnr.as_mut() {
                        Some(sm) => self.cfg.per_model.capacity_with(sm, gi, 1500),
                        None => self
                            .cfg
                            .per_model
                            .capacity_bps(gi, &self.csi(s, c, now), 1500),
                    },
                    None => 0.0,
                };
                let m = &mut self.clients[c].metrics;
                m.capacity_best_bps_sum += best_cap;
                m.capacity_loss_bps_sum += (best_cap - serv_cap).max(0.0);
                m.capacity_samples += 1;
                if let Some(serv) = serving {
                    m.accuracy_total += 1;
                    if oracle == serv {
                        m.accuracy_optimal += 1;
                    }
                }
            }
        }
        if now < self.traffic_until {
            ctx.schedule_in(SimDuration::from_millis(1), Ev::AccuracyTick);
        }
    }
}
