//! The SSD device model: command → page transactions → chip/channel
//! pipeline → completion.
//!
//! Reads: cell read on the chip (cell latency, + a mapping-page read on a
//! CMT miss), then the page crosses the shared channel bus. Writes: if
//! the write cache has room the page completes immediately and a destage
//! job (bus transfer + program) runs in the background; otherwise the
//! write is synchronous (bus transfer, program, complete). GC occasionally
//! steals chip time to copy valid pages when free space runs low.

use crate::cache::WriteCache;
use crate::cmt::CachedMappingTable;
use crate::config::SsdConfig;
use crate::ftl::Ftl;
use sim_engine::{FxHashMap, SimDuration, SimTime};
use std::collections::VecDeque;
use workload::IoType;

/// A command as delivered by the NVMe driver to the device.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SsdCommand {
    /// Driver-assigned command identifier (unique among in-flight).
    pub id: u64,
    /// Read or write.
    pub op: IoType,
    /// Starting logical block address (4 KiB sectors).
    pub lba: u64,
    /// Transfer size in bytes.
    pub size: u64,
}

/// Completion of a whole command.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CommandCompletion {
    /// The completed command's id.
    pub id: u64,
    /// Its I/O type.
    pub op: IoType,
    /// Its size in bytes.
    pub size: u64,
    /// Completion timestamp.
    pub at: SimTime,
}

/// Step records are copied per command on the hot path; keep them
/// within half a cache line.
const _: () = assert!(std::mem::size_of::<CommandCompletion>() <= 32);

/// Events the SSD schedules on its owner's event queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SsdEvent {
    /// A chip finished its current cell operation.
    ChipDone {
        /// Flat chip index (`channel * chips_per_channel + chip`).
        chip: usize,
    },
    /// A channel bus finished its current page transfer.
    ChannelDone {
        /// Channel index.
        channel: usize,
    },
}

/// Device-slot release: all flash-level work of a command finished, so
/// its queue-depth slot is free. For reads this coincides with the host
/// completion; for cache-absorbed writes the host completion arrives at
/// cache-insert time while the slot is held until the destage program
/// lands (the device's internal write-buffer slots are finite).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CommandRelease {
    /// The command's id.
    pub id: u64,
    /// Its I/O type.
    pub op: IoType,
}

const _: () = assert!(std::mem::size_of::<CommandRelease>() <= 16);

/// Result of feeding the SSD one stimulus: completions to deliver, slot
/// releases, and new events to schedule.
#[derive(Debug, Default)]
pub struct SsdStep {
    /// Commands that fully completed (host-visible).
    pub completions: Vec<CommandCompletion>,
    /// Commands whose device work finished (queue-depth slot freed).
    pub releases: Vec<CommandRelease>,
    /// Events to insert into the owner's queue.
    pub schedule: Vec<(SimTime, SsdEvent)>,
}

impl SsdStep {
    /// Empty the step for reuse, keeping the buffer capacities. Hot
    /// loops hold one `SsdStep` and pass it to the `*_into` entry
    /// points instead of allocating a fresh step per event.
    pub fn clear(&mut self) {
        self.completions.clear();
        self.releases.clear();
        self.schedule.clear();
    }
}

/// What a chip is asked to do for one page.
#[derive(Clone, Copy, Debug)]
enum ChipJob {
    /// Cell read for a host read; on completion the page crosses the bus.
    /// `extra_mapping_read` charges one more cell read for a CMT miss.
    CellRead { cmd: u64, extra_mapping_read: bool },
    /// Program for a synchronous (cache-bypassing) host write.
    ProgramSync { cmd: u64, extra_mapping_read: bool },
    /// Program for a background destage of `bytes` cached write data of
    /// command `cmd` (releases cache space and device work when done);
    /// `extra_mapping_read` charges the CMT-miss mapping-page read.
    ProgramDestage {
        cmd: u64,
        bytes: u64,
        extra_mapping_read: bool,
    },
    /// GC valid-page copy (read + program back-to-back on the chip).
    GcCopy,
    /// Block erase.
    Erase,
}

/// What a channel bus is asked to move.
#[derive(Clone, Copy, Debug)]
enum BusJob {
    /// Read data out to the host; completes one page of `cmd`.
    ReadOut { cmd: u64 },
    /// Write data in. After the transfer the page either completes into
    /// the write cache (background program follows) or, with the cache
    /// full, goes through a synchronous program first.
    WriteIn {
        cmd: u64,
        chip: usize,
        extra_mapping_read: bool,
    },
}

#[derive(Debug)]
struct ChipState {
    busy: bool,
    queue: VecDeque<ChipJob>,
    in_service: Option<ChipJob>,
    /// When the current service started (telemetry).
    busy_since: Option<SimTime>,
    /// Accumulated busy picoseconds of finished services (telemetry).
    busy_ps: u64,
}

#[derive(Debug)]
struct ChannelState {
    busy: bool,
    queue: VecDeque<BusJob>,
    in_service: Option<BusJob>,
    /// When the current transfer started (telemetry).
    busy_since: Option<SimTime>,
    /// Accumulated busy picoseconds of finished transfers (telemetry).
    busy_ps: u64,
}

#[derive(Debug)]
struct CmdState {
    op: IoType,
    size: u64,
    /// Pages still needed for the host-visible completion.
    remaining_host: u64,
    /// Pages of flash-level work still pending (slot release).
    remaining_work: u64,
}

/// Cumulative device statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct SsdStats {
    /// Bytes of completed read commands.
    pub read_bytes_completed: u64,
    /// Bytes of completed write commands.
    pub write_bytes_completed: u64,
    /// Completed read commands.
    pub reads_completed: u64,
    /// Completed write commands.
    pub writes_completed: u64,
    /// Pages copied by garbage collection.
    pub gc_copies: u64,
    /// Blocks erased by garbage collection.
    pub erases: u64,
    /// Write pages absorbed by the cache.
    pub cached_writes: u64,
    /// Write pages that bypassed the cache.
    pub sync_writes: u64,
}

/// The SSD device model. See the module docs for the pipeline.
#[derive(Debug)]
pub struct Ssd {
    cfg: SsdConfig,
    chips: Vec<ChipState>,
    channels: Vec<ChannelState>,
    commands: FxHashMap<u64, CmdState>,
    cmt: CachedMappingTable,
    cache: WriteCache,
    ftl: Ftl,
    stats: SsdStats,
    /// Fault overlay: multiplier on chip/channel service durations
    /// (1.0 = nominal; the scaling path is skipped entirely then).
    latency_factor: f64,
    /// Fault overlay: while true the device starts no new chip or
    /// channel work (fail-stop window); queued jobs sit until
    /// [`Ssd::set_halted`] restarts service. Operations already in
    /// service when the halt lands still finish.
    halted: bool,
}

impl Ssd {
    /// Build a device from a configuration.
    pub fn new(cfg: SsdConfig) -> Self {
        let n_chips = cfg.n_chips();
        let n_channels = cfg.channels;
        let cmt = CachedMappingTable::new(cfg.cmt_entries());
        let cache = WriteCache::new(cfg.write_cache);
        let ftl = Ftl::new(
            cfg.total_pages,
            n_chips,
            cfg.pages_per_block,
            cfg.gc_free_blocks,
        );
        Ssd {
            cfg,
            chips: (0..n_chips)
                .map(|_| ChipState {
                    busy: false,
                    queue: VecDeque::new(),
                    in_service: None,
                    busy_since: None,
                    busy_ps: 0,
                })
                .collect(),
            channels: (0..n_channels)
                .map(|_| ChannelState {
                    busy: false,
                    queue: VecDeque::new(),
                    in_service: None,
                    busy_since: None,
                    busy_ps: 0,
                })
                .collect(),
            commands: FxHashMap::default(),
            cmt,
            cache,
            ftl,
            stats: SsdStats::default(),
            latency_factor: 1.0,
            halted: false,
        }
    }

    /// Set the fault-overlay multiplier on chip/channel service
    /// durations (latency-spike fault; 1.0 restores nominal service).
    pub fn set_latency_factor(&mut self, factor: f64) {
        assert!(
            factor.is_finite() && factor >= 1.0,
            "latency factor must be finite and >= 1, got {factor}"
        );
        self.latency_factor = factor;
    }

    /// Enter or leave a fail-stop window. While halted the device
    /// starts no new chip or channel work; leaving the halt kicks every
    /// chip and channel so queued jobs resume (events land in `step`).
    pub fn set_halted(&mut self, halted: bool, now: SimTime, step: &mut SsdStep) {
        if self.halted == halted {
            return;
        }
        self.halted = halted;
        if !halted {
            for chip in 0..self.chips.len() {
                self.kick_chip(chip, now, step);
            }
            for channel in 0..self.channels.len() {
                self.kick_channel(channel, now, step);
            }
        }
    }

    /// Apply the latency-spike overlay to a nominal service duration.
    fn faulted(&self, dur: SimDuration) -> SimDuration {
        if self.latency_factor == 1.0 {
            dur
        } else {
            SimDuration::from_ps((dur.as_ps() as f64 * self.latency_factor).round() as u64)
        }
    }

    /// Device configuration.
    pub fn config(&self) -> &SsdConfig {
        &self.cfg
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> SsdStats {
        self.stats
    }

    /// Commands currently being processed.
    pub fn in_flight(&self) -> usize {
        self.commands.len()
    }

    /// Whether a specific command id still holds a device slot (host
    /// completion or background destage outstanding). Retry paths use
    /// this to avoid resubmitting a command the device already holds.
    pub fn has_command(&self, id: u64) -> bool {
        self.commands.contains_key(&id)
    }

    /// Write-cache occupancy fraction.
    pub fn cache_occupancy(&self) -> f64 {
        self.cache.occupancy()
    }

    /// Cumulative busy picoseconds per `(channel, chip)` up to `now`
    /// (a unit mid-service is credited up to `now`). Telemetry samplers
    /// difference successive calls to get per-window utilization.
    pub fn busy_ps(&self, now: SimTime) -> (Vec<u64>, Vec<u64>) {
        let credit = |busy_ps: u64, since: Option<SimTime>| {
            busy_ps + since.map_or(0, |s| now.since(s).as_ps())
        };
        (
            self.channels
                .iter()
                .map(|c| credit(c.busy_ps, c.busy_since))
                .collect(),
            self.chips
                .iter()
                .map(|c| credit(c.busy_ps, c.busy_since))
                .collect(),
        )
    }

    fn channel_of_chip(&self, chip: usize) -> usize {
        chip / self.cfg.chips_per_channel
    }

    /// Write-amplification factor so far (1.0 before any GC).
    pub fn write_amplification(&self) -> f64 {
        self.ftl.write_amplification()
    }

    /// Submit one command. Returns events to schedule (completions and
    /// releases arrive later via [`Ssd::handle`]).
    ///
    /// # Panics
    /// Panics if a command with the same id is already in flight.
    pub fn submit(&mut self, cmd: SsdCommand, now: SimTime) -> SsdStep {
        let mut step = SsdStep::default();
        self.submit_into(cmd, now, &mut step);
        step
    }

    /// Allocation-free variant of [`Ssd::submit`]: appends to a
    /// caller-owned step instead of returning a fresh one.
    ///
    /// # Panics
    /// Panics if a command with the same id is already in flight.
    pub fn submit_into(&mut self, cmd: SsdCommand, now: SimTime, step: &mut SsdStep) {
        // Page span from the byte range: an unaligned request crosses one
        // more page than size alone suggests.
        let first_byte = cmd.lba * workload::request::SECTOR_BYTES;
        let last_byte = first_byte + cmd.size.max(1);
        let page_bytes = self.cfg.page.as_bytes();
        let pages = last_byte.div_ceil(page_bytes) - first_byte / page_bytes;
        let prev = self.commands.insert(
            cmd.id,
            CmdState {
                op: cmd.op,
                size: cmd.size,
                remaining_host: pages,
                remaining_work: pages,
            },
        );
        assert!(prev.is_none(), "duplicate in-flight command id {}", cmd.id);

        let first_lpn = cmd.lba * workload::request::SECTOR_BYTES / self.cfg.page.as_bytes();
        for p in 0..pages {
            let lpn = first_lpn + p;
            let miss = !self.cmt.access(lpn);
            match cmd.op {
                IoType::Read => {
                    let chip = self.ftl.read_chip(lpn);
                    self.chips[chip].queue.push_back(ChipJob::CellRead {
                        cmd: cmd.id,
                        extra_mapping_read: miss,
                    });
                    self.kick_chip(chip, now, step);
                }
                IoType::Write => {
                    // The FTL allocates the physical page (striping
                    // writes round-robin over chips, invalidating any
                    // previous copy); the data then crosses the shared
                    // channel bus into the device — the symmetric
                    // resource reads and writes contend on. Cache vs
                    // sync is decided when the transfer lands. Any GC
                    // work the allocation owes becomes real chip time.
                    let (ppn, gc) = self.ftl.allocate(lpn);
                    let chip = ppn.chip;
                    let channel = self.channel_of_chip(chip);
                    self.channels[channel].queue.push_back(BusJob::WriteIn {
                        cmd: cmd.id,
                        chip,
                        extra_mapping_read: miss,
                    });
                    self.kick_channel(channel, now, step);
                    if let Some(work) = gc {
                        self.enqueue_gc(work, now, step);
                    }
                }
            }
        }
    }

    /// Advance the model on one of its own events.
    pub fn handle(&mut self, ev: SsdEvent, now: SimTime) -> SsdStep {
        let mut step = SsdStep::default();
        self.handle_into(ev, now, &mut step);
        step
    }

    /// Allocation-free variant of [`Ssd::handle`]: appends to a
    /// caller-owned step instead of returning a fresh one.
    pub fn handle_into(&mut self, ev: SsdEvent, now: SimTime, step: &mut SsdStep) {
        match ev {
            SsdEvent::ChipDone { chip } => self.on_chip_done(chip, now, step),
            SsdEvent::ChannelDone { channel } => self.on_channel_done(channel, now, step),
        }
    }

    /// Start the next queued job on an idle chip.
    fn kick_chip(&mut self, chip: usize, now: SimTime, step: &mut SsdStep) {
        if self.halted {
            return;
        }
        let st = &mut self.chips[chip];
        if st.busy {
            return;
        }
        let Some(job) = st.queue.pop_front() else {
            return;
        };
        st.busy = true;
        st.busy_since = Some(now);
        st.in_service = Some(job);
        let dur = match job {
            ChipJob::CellRead {
                extra_mapping_read, ..
            } => {
                let base = self.cfg.read_latency;
                if extra_mapping_read {
                    base + self.cfg.read_latency
                } else {
                    base
                }
            }
            ChipJob::ProgramSync {
                extra_mapping_read, ..
            } => {
                let base = self.cfg.write_latency;
                if extra_mapping_read {
                    base + self.cfg.read_latency
                } else {
                    base
                }
            }
            ChipJob::ProgramDestage {
                extra_mapping_read, ..
            } => {
                if extra_mapping_read {
                    self.cfg.write_latency + self.cfg.read_latency
                } else {
                    self.cfg.write_latency
                }
            }
            ChipJob::GcCopy => self.cfg.read_latency + self.cfg.write_latency,
            ChipJob::Erase => self.cfg.erase_latency,
        };
        let dur = self.faulted(dur);
        step.schedule.push((now + dur, SsdEvent::ChipDone { chip }));
    }

    /// Start the next queued transfer on an idle channel.
    fn kick_channel(&mut self, channel: usize, now: SimTime, step: &mut SsdStep) {
        if self.halted {
            return;
        }
        let st = &mut self.channels[channel];
        if st.busy {
            return;
        }
        let Some(job) = st.queue.pop_front() else {
            return;
        };
        st.busy = true;
        st.busy_since = Some(now);
        st.in_service = Some(job);
        let dur = self.faulted(self.cfg.page_transfer_time());
        step.schedule
            .push((now + dur, SsdEvent::ChannelDone { channel }));
    }

    fn on_chip_done(&mut self, chip: usize, now: SimTime, step: &mut SsdStep) {
        let job = {
            let st = &mut self.chips[chip];
            st.busy = false;
            if let Some(since) = st.busy_since.take() {
                st.busy_ps += now.since(since).as_ps();
            }
            st.in_service.take().expect("chip done without service")
        };
        match job {
            ChipJob::CellRead { cmd, .. } => {
                // Page read from cells; move it over the bus.
                let channel = self.channel_of_chip(chip);
                self.channels[channel]
                    .queue
                    .push_back(BusJob::ReadOut { cmd });
                self.kick_channel(channel, now, step);
            }
            ChipJob::ProgramSync { cmd, .. } => {
                self.complete_host_page(cmd, now, step);
                self.complete_work_page(cmd, step);
            }
            ChipJob::ProgramDestage { cmd, bytes, .. } => {
                self.cache.release(bytes);
                self.complete_work_page(cmd, step);
            }
            ChipJob::GcCopy => {
                self.stats.gc_copies += 1;
            }
            ChipJob::Erase => {
                self.stats.erases += 1;
            }
        }
        self.kick_chip(chip, now, step);
    }

    fn on_channel_done(&mut self, channel: usize, now: SimTime, step: &mut SsdStep) {
        let job = {
            let st = &mut self.channels[channel];
            st.busy = false;
            if let Some(since) = st.busy_since.take() {
                st.busy_ps += now.since(since).as_ps();
            }
            st.in_service.take().expect("channel done without service")
        };
        match job {
            BusJob::ReadOut { cmd } => {
                self.complete_host_page(cmd, now, step);
                self.complete_work_page(cmd, step);
            }
            BusJob::WriteIn {
                cmd,
                chip,
                extra_mapping_read,
            } => {
                let page_bytes = self.cfg.page.as_bytes();
                if self.cache.try_absorb(page_bytes) {
                    // Cache hit: the page completes to the host now; the
                    // program destages in the background, freeing the
                    // cache space and the device slot when it lands.
                    self.stats.cached_writes += 1;
                    self.complete_host_page(cmd, now, step);
                    self.chips[chip].queue.push_back(ChipJob::ProgramDestage {
                        cmd,
                        bytes: page_bytes,
                        extra_mapping_read,
                    });
                } else {
                    // Cache full: flash-bound synchronous write.
                    self.stats.sync_writes += 1;
                    self.chips[chip].queue.push_back(ChipJob::ProgramSync {
                        cmd,
                        extra_mapping_read,
                    });
                }
                self.kick_chip(chip, now, step);
            }
        }
        self.kick_channel(channel, now, step);
    }

    /// Turn owed GC work into timed chip jobs: one read+program per
    /// migrated valid page, then the block erase.
    fn enqueue_gc(&mut self, work: crate::ftl::GcWork, now: SimTime, step: &mut SsdStep) {
        for _ in 0..work.moved_pages {
            self.chips[work.chip].queue.push_back(ChipJob::GcCopy);
        }
        self.chips[work.chip].queue.push_back(ChipJob::Erase);
        self.kick_chip(work.chip, now, step);
    }

    /// Account one host-visible page of `cmd`; emits the completion when
    /// all pages arrived.
    fn complete_host_page(&mut self, cmd: u64, now: SimTime, step: &mut SsdStep) {
        let st = self
            .commands
            .get_mut(&cmd)
            .expect("host page for unknown command");
        debug_assert!(st.remaining_host > 0);
        st.remaining_host -= 1;
        if st.remaining_host == 0 {
            let (op, size) = (st.op, st.size);
            match op {
                IoType::Read => {
                    self.stats.reads_completed += 1;
                    self.stats.read_bytes_completed += size;
                }
                IoType::Write => {
                    self.stats.writes_completed += 1;
                    self.stats.write_bytes_completed += size;
                }
            }
            step.completions.push(CommandCompletion {
                id: cmd,
                op,
                size,
                at: now,
            });
            self.gc_entry(cmd);
        }
    }

    /// Account one page of flash-level work of `cmd`; emits the slot
    /// release when all work finished.
    fn complete_work_page(&mut self, cmd: u64, step: &mut SsdStep) {
        let st = self
            .commands
            .get_mut(&cmd)
            .expect("work page for unknown command");
        debug_assert!(st.remaining_work > 0);
        st.remaining_work -= 1;
        if st.remaining_work == 0 {
            step.releases.push(CommandRelease { id: cmd, op: st.op });
            self.gc_entry(cmd);
        }
    }

    /// Remove the command-table entry once both host completion and slot
    /// release have been emitted.
    fn gc_entry(&mut self, cmd: u64) {
        if let Some(st) = self.commands.get(&cmd) {
            if st.remaining_host == 0 && st.remaining_work == 0 {
                self.commands.remove(&cmd);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_engine::ByteSize;

    #[test]
    fn single_read_latency_exact() {
        let cfg = SsdConfig::ssd_a();
        let mut ssd = Ssd::new(cfg.clone());
        let mut q = sim_engine::EventQueue::new();
        let step = ssd.submit(
            SsdCommand {
                id: 1,
                op: IoType::Read,
                lba: 0,
                size: 16 * 1024,
            },
            SimTime::ZERO,
        );
        assert!(step.completions.is_empty());
        for (t, e) in step.schedule {
            q.schedule(t, e);
        }
        let mut done_at = None;
        while let Some((t, e)) = q.pop() {
            let s = ssd.handle(e, t);
            for c in s.completions {
                done_at = Some(c.at);
            }
            for (t2, e2) in s.schedule {
                q.schedule(t2, e2);
            }
        }
        // First access always misses the CMT: read = 2*75us cell (map +
        // data) + 40.96us transfer.
        let expect = cfg.read_latency + cfg.read_latency + cfg.page_transfer_time();
        assert_eq!(done_at.unwrap(), SimTime::ZERO + expect);
        assert_eq!(ssd.stats().reads_completed, 1);
        assert_eq!(ssd.in_flight(), 0);
    }

    #[test]
    fn busy_time_matches_service_time() {
        // One uncached read: chip busy for exactly the two cell reads
        // (map + data), its channel for one page transfer.
        let cfg = SsdConfig::ssd_a();
        let mut ssd = Ssd::new(cfg.clone());
        let mut q = sim_engine::EventQueue::new();
        let step = ssd.submit(
            SsdCommand {
                id: 1,
                op: IoType::Read,
                lba: 0,
                size: 16 * 1024,
            },
            SimTime::ZERO,
        );
        for (t, e) in step.schedule {
            q.schedule(t, e);
        }
        let mut end = SimTime::ZERO;
        while let Some((t, e)) = q.pop() {
            for (t2, e2) in ssd.handle(e, t).schedule {
                q.schedule(t2, e2);
            }
            end = t;
        }
        let (channels, chips) = ssd.busy_ps(end);
        assert_eq!(
            chips.iter().sum::<u64>(),
            (cfg.read_latency + cfg.read_latency).as_ps()
        );
        assert_eq!(
            channels.iter().sum::<u64>(),
            cfg.page_transfer_time().as_ps()
        );
        // Mid-service credit: a fresh submit makes a chip busy, and the
        // accumulated time keeps growing with `now` while it serves.
        let step = ssd.submit(
            SsdCommand {
                id: 2,
                op: IoType::Read,
                lba: 9_999,
                size: 4096,
            },
            end,
        );
        assert!(!step.schedule.is_empty());
        let (_, before) = ssd.busy_ps(end);
        let (_, after) = ssd.busy_ps(end + SimDuration::from_us(10));
        assert_eq!(
            after.iter().sum::<u64>() - before.iter().sum::<u64>(),
            SimDuration::from_us(10).as_ps()
        );
    }

    #[test]
    fn cached_write_completes_after_bus_transfer() {
        let cfg = SsdConfig::ssd_a();
        let mut ssd = Ssd::new(cfg.clone());
        let t0 = SimTime::from_us(5);
        let step = ssd.submit(
            SsdCommand {
                id: 7,
                op: IoType::Write,
                lba: 0,
                size: 16 * 1024,
            },
            t0,
        );
        // Nothing completes at submit; one bus transfer scheduled.
        assert!(step.completions.is_empty());
        assert_eq!(step.schedule.len(), 1);
        let (t, ev) = step.schedule[0];
        assert_eq!(t, t0 + cfg.page_transfer_time());
        // The transfer landing completes the (cached) write and starts a
        // background program.
        let s2 = ssd.handle(ev, t);
        assert_eq!(s2.completions.len(), 1);
        assert_eq!(s2.completions[0].at, t);
        assert_eq!(ssd.stats().cached_writes, 1);
        assert!(!s2.schedule.is_empty(), "background program scheduled");
    }

    #[test]
    fn multi_page_command_counts_pages() {
        let cfg = SsdConfig::ssd_a();
        let mut ssd = Ssd::new(cfg);
        // 44 KB = 3 pages of 16 KiB.
        let step = ssd.submit(
            SsdCommand {
                id: 1,
                op: IoType::Read,
                lba: 0,
                size: 44_000,
            },
            SimTime::ZERO,
        );
        // Nothing completes at submit; three cell reads scheduled across
        // chips.
        assert!(step.completions.is_empty());
        assert_eq!(ssd.in_flight(), 1);
    }

    #[test]
    #[should_panic(expected = "duplicate in-flight command id")]
    fn duplicate_id_rejected() {
        let mut ssd = Ssd::new(SsdConfig::ssd_a());
        let c = SsdCommand {
            id: 1,
            op: IoType::Read,
            lba: 0,
            size: 4096,
        };
        let _ = ssd.submit(c, SimTime::ZERO);
        let _ = ssd.submit(c, SimTime::ZERO);
    }

    #[test]
    fn gc_triggers_when_space_low() {
        // Tiny device: 8 chips x 4 blocks x 8 pages = 256 pages; a
        // hot-set overwrite pattern forces GC quickly.
        let cfg = SsdConfig {
            total_pages: 256,
            pages_per_block: 8,
            gc_free_blocks: 1,
            write_cache: ByteSize::ZERO,
            ..SsdConfig::ssd_a()
        };
        // Drain the event queue completely (GC copies finish after the
        // last host completion).
        let mut ssd = Ssd::new(cfg);
        let mut q = sim_engine::EventQueue::new();
        for i in 0..400u64 {
            let s = ssd.submit(
                SsdCommand {
                    id: i,
                    op: IoType::Write,
                    lba: (i % 40) * 4, // hot set: forces overwrites + GC
                    size: 16 * 1024,
                },
                SimTime::from_us(i),
            );
            for (t, e) in s.schedule {
                q.schedule(t, e);
            }
        }
        while let Some((t, e)) = q.pop() {
            let s = ssd.handle(e, t);
            for (t2, e2) in s.schedule {
                q.schedule(t2, e2);
            }
        }
        assert!(ssd.stats().erases > 0, "GC never erased");
        assert!(ssd.write_amplification() >= 1.0);
        assert_eq!(ssd.stats().writes_completed, 400);
    }
}
