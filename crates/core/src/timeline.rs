//! The discrete-event timeline: replays instance programs against shared
//! host resources.
//!
//! Two resources matter on the paper's worker (§6.1): the snapshot disk
//! (SSD/HDD, modelled by [`sim_storage::Disk`] with its page cache and
//! channels) and the 48-core CPU pool. Instances progress step by step;
//! every disk or CPU request is submitted at the instant the instance
//! reaches it, so queueing under concurrency (Fig 9) emerges naturally.

use sim_core::{EventQueue, MultiServer, SimDuration, SimTime};
use sim_storage::{Access, Disk, DiskStats, PAGE_SIZE};

use crate::invocation::{Breakdown, InstanceProgram, Phase, TimedStep};

/// Timing result of one instance.
#[derive(Debug, Clone, Copy)]
pub struct InstanceResult {
    /// Arrival time of the invocation.
    pub arrival: SimTime,
    /// Completion time.
    pub end: SimTime,
    /// Per-phase latency breakdown.
    pub breakdown: Breakdown,
}

impl InstanceResult {
    /// End-to-end latency.
    pub fn latency(&self) -> SimDuration {
        self.end - self.arrival
    }
}

/// In-flight state of a [`TimedStep::ParallelPageReads`] step: up to
/// `concurrency` 4 KB page fetches outstanding, installs chained on one
/// monitor thread (`install_free`).
#[derive(Debug)]
struct ParState {
    pending: std::collections::VecDeque<u64>,
    outstanding: usize,
    install_free: SimTime,
    per_page_cpu: SimDuration,
    file: sim_storage::FileId,
}

#[derive(Debug)]
struct InstState {
    steps: Vec<TimedStep>,
    pc: usize,
    phase: Option<Phase>,
    phase_start: SimTime,
    arrival: SimTime,
    breakdown: Breakdown,
    par: Option<ParState>,
    end: Option<SimTime>,
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    Advance(usize),
    /// A fan-out page fetch completed for instance `.0`.
    ParDone(usize),
}

/// The event-driven host simulator.
#[derive(Debug)]
pub struct Timeline {
    disk: Disk,
    cpu: MultiServer,
}

impl Timeline {
    /// Creates a timeline over `disk` with `cores` CPU cores.
    pub fn new(disk: Disk, cores: usize) -> Self {
        Timeline {
            disk,
            cpu: MultiServer::new("cpu", cores),
        }
    }

    /// Disk statistics accumulated so far (useful/raw bytes, cache hits).
    pub fn disk_stats(&self) -> DiskStats {
        self.disk.stats()
    }

    /// Runs all programs to completion and returns per-instance results in
    /// input order.
    pub fn run(&mut self, programs: Vec<InstanceProgram>) -> Vec<InstanceResult> {
        let mut queue: EventQueue<Ev> = EventQueue::new();
        let mut instances: Vec<InstState> = programs
            .into_iter()
            .map(|p| InstState {
                steps: p.steps,
                pc: 0,
                phase: None,
                phase_start: p.arrival,
                arrival: p.arrival,
                breakdown: Breakdown::default(),
                par: None,
                end: None,
            })
            .collect();
        for (i, inst) in instances.iter().enumerate() {
            queue.push(inst.arrival, Ev::Advance(i));
        }

        while let Some((now, ev)) = queue.pop() {
            match ev {
                Ev::Advance(i) => self.advance(&mut instances[i], i, now, &mut queue),
                Ev::ParDone(i) => self.parallel_completion(&mut instances[i], i, now, &mut queue),
            }
        }

        instances
            .into_iter()
            .map(|inst| InstanceResult {
                arrival: inst.arrival,
                end: inst.end.expect("instance ran to completion"),
                breakdown: inst.breakdown,
            })
            .collect()
    }

    /// Executes steps for instance `i` starting at `now` until it blocks
    /// on a resource or finishes.
    fn advance(&mut self, inst: &mut InstState, i: usize, now: SimTime, queue: &mut EventQueue<Ev>) {
        loop {
            if inst.pc >= inst.steps.len() {
                if let Some(phase) = inst.phase.take() {
                    inst.breakdown.add(phase, now - inst.phase_start);
                }
                inst.end = Some(now);
                return;
            }
            // Clone-free access: steps are only read.
            match &inst.steps[inst.pc] {
                TimedStep::Phase(p) => {
                    if let Some(prev) = inst.phase.replace(*p) {
                        inst.breakdown.add(prev, now - inst.phase_start);
                    }
                    inst.phase_start = now;
                    inst.pc += 1;
                }
                TimedStep::Cpu(d) => {
                    let d = *d;
                    inst.pc += 1;
                    if d.is_zero() {
                        continue;
                    }
                    let done = self.cpu.submit(now, d);
                    queue.push(done, Ev::Advance(i));
                    return;
                }
                TimedStep::FaultRead {
                    file,
                    page,
                    file_pages,
                } => {
                    let out = self.disk.fault_read_page(now, *file, *page, *file_pages);
                    inst.pc += 1;
                    queue.push(out.ready, Ev::Advance(i));
                    return;
                }
                TimedStep::DirectRead {
                    file,
                    offset,
                    len,
                    sequential,
                } => {
                    let access = if *sequential {
                        Access::Sequential
                    } else {
                        Access::Random
                    };
                    let out = self.disk.read_direct(now, *file, *offset, *len, access);
                    inst.pc += 1;
                    queue.push(out.ready, Ev::Advance(i));
                    return;
                }
                TimedStep::BufferedRead { file, offset, len } => {
                    let out = self.disk.read_buffered(now, *file, *offset, *len);
                    inst.pc += 1;
                    queue.push(out.ready, Ev::Advance(i));
                    return;
                }
                TimedStep::Write { file, offset, len } => {
                    let done = self.disk.write(now, *file, *offset, *len);
                    inst.pc += 1;
                    queue.push(done, Ev::Advance(i));
                    return;
                }
                TimedStep::ParallelPageReads {
                    file,
                    pages,
                    concurrency,
                    per_item_cpu,
                } => {
                    if pages.is_empty() {
                        inst.pc += 1;
                        continue;
                    }
                    let mut par = ParState {
                        pending: pages.iter().copied().collect(),
                        outstanding: 0,
                        install_free: now,
                        per_page_cpu: *per_item_cpu,
                        file: *file,
                    };
                    let first_wave = (*concurrency).min(par.pending.len()).max(1);
                    for _ in 0..first_wave {
                        let page = par.pending.pop_front().expect("non-empty");
                        self.fetch_page(&mut par, i, page, now, queue);
                    }
                    inst.par = Some(par);
                    return;
                }
            }
        }
    }

    /// Submits one 4 KB `O_DIRECT` page fetch of a fan-out step.
    fn fetch_page(&mut self, par: &mut ParState, i: usize, page: u64, now: SimTime, queue: &mut EventQueue<Ev>) {
        let out = self
            .disk
            .read_direct(now, par.file, page * PAGE_SIZE, PAGE_SIZE, Access::Random);
        par.outstanding += 1;
        queue.push(out.ready, Ev::ParDone(i));
    }

    /// One parallel fetch completed: chain its serialized install, launch
    /// the next fetch, and advance the instance when everything drains.
    fn parallel_completion(&mut self, inst: &mut InstState, i: usize, now: SimTime, queue: &mut EventQueue<Ev>) {
        let par = inst.par.as_mut().expect("parallel state active");
        par.outstanding -= 1;
        // Installs are serialized on the monitor thread (§6.2's Parallel
        // PFs bottleneck).
        par.install_free = par.install_free.max(now) + par.per_page_cpu;
        if let Some(page) = par.pending.pop_front() {
            self.fetch_page(par, i, page, now, queue);
        } else if par.outstanding == 0 {
            let resume = par.install_free.max(now);
            inst.par = None;
            inst.pc += 1;
            queue.push(resume, Ev::Advance(i));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_storage::FileStore;

    fn files() -> (FileStore, sim_storage::FileId) {
        let fs = FileStore::new();
        let f = fs.create("mem");
        fs.set_len(f, 65536 * PAGE_SIZE);
        (fs, f)
    }

    fn ms(n: u64) -> SimDuration {
        SimDuration::from_millis(n)
    }

    #[test]
    fn single_instance_serial_steps() {
        let (_, f) = files();
        let prog = InstanceProgram {
            arrival: SimTime::ZERO,
            steps: vec![
                TimedStep::Phase(Phase::LoadVmm),
                TimedStep::Cpu(ms(10)),
                TimedStep::Phase(Phase::Processing),
                TimedStep::Cpu(ms(5)),
                TimedStep::FaultRead {
                    file: f,
                    page: 100,
                    file_pages: 65536,
                },
            ],
        };
        let mut tl = Timeline::new(Disk::ssd(), 4);
        let results = tl.run(vec![prog]);
        assert_eq!(results.len(), 1);
        let r = &results[0];
        assert_eq!(r.breakdown.load_vmm, ms(10));
        assert!(r.breakdown.processing > ms(5));
        assert!(r.latency() > ms(15));
        assert!((r.breakdown.total() - r.latency()).as_nanos() < 10);
    }

    #[test]
    fn phases_split_latency_exactly() {
        let prog = InstanceProgram {
            arrival: SimTime::ZERO,
            steps: vec![
                TimedStep::Phase(Phase::LoadVmm),
                TimedStep::Cpu(ms(7)),
                TimedStep::Phase(Phase::ConnRestore),
                TimedStep::Cpu(ms(3)),
                TimedStep::Phase(Phase::Processing),
                TimedStep::Cpu(ms(40)),
            ],
        };
        let mut tl = Timeline::new(Disk::ssd(), 2);
        let r = tl.run(vec![prog]).remove(0);
        assert_eq!(r.breakdown.load_vmm, ms(7));
        assert_eq!(r.breakdown.conn_restore, ms(3));
        assert_eq!(r.breakdown.processing, ms(40));
        assert_eq!(r.latency(), ms(50));
    }

    #[test]
    fn concurrent_instances_contend_for_cpu() {
        // 4 instances, 2 cores, 10ms compute each: makespan 20ms.
        let progs: Vec<InstanceProgram> = (0..4)
            .map(|_| InstanceProgram {
                arrival: SimTime::ZERO,
                steps: vec![TimedStep::Phase(Phase::Processing), TimedStep::Cpu(ms(10))],
            })
            .collect();
        let mut tl = Timeline::new(Disk::ssd(), 2);
        let results = tl.run(progs);
        let makespan = results.iter().map(|r| r.end).max().unwrap();
        assert_eq!(makespan, SimTime::ZERO + ms(20));
    }

    #[test]
    fn fault_reads_hit_cache_after_first_instance() {
        let (_, f) = files();
        let prog = |page| InstanceProgram {
            arrival: SimTime::ZERO,
            steps: vec![
                TimedStep::Phase(Phase::Processing),
                TimedStep::FaultRead {
                    file: f,
                    page,
                    file_pages: 65536,
                },
            ],
        };
        let mut tl = Timeline::new(Disk::ssd(), 4);
        // Same page twice: second is a page-cache hit.
        let results = tl.run(vec![prog(5), prog(5)]);
        let st = tl.disk_stats();
        assert_eq!(st.cache_hits, 1);
        assert!(results[0].latency() > SimDuration::from_micros(50));
    }

    #[test]
    fn parallel_reads_overlap_but_installs_serialize() {
        let (_, f) = files();
        let pages: Vec<u64> = (0..64).map(|i| i * 1000).collect();
        let per_install = SimDuration::from_micros(35);
        let prog = InstanceProgram {
            arrival: SimTime::ZERO,
            steps: vec![
                TimedStep::Phase(Phase::FetchWs),
                TimedStep::ParallelPageReads {
                    file: f,
                    pages: pages.clone(),
                    concurrency: 16,
                    per_item_cpu: per_install,
                },
            ],
        };
        let mut tl = Timeline::new(Disk::ssd(), 48);
        let r = tl.run(vec![prog]).remove(0);
        // Serial lower bound: 64 installs at 35us.
        assert!(r.latency() >= per_install * 64);
        // Far faster than fully serial disk reads (64 x ~125us).
        assert!(r.latency() < SimDuration::from_micros(125) * 64);
        // Sequential-read sanity: exactly 64 device reads happened.
        assert_eq!(tl.disk_stats().device_reads, 64);
    }

    #[test]
    fn empty_parallel_step_is_noop() {
        let (_, f) = files();
        let prog = InstanceProgram {
            arrival: SimTime::ZERO,
            steps: vec![
                TimedStep::Phase(Phase::FetchWs),
                TimedStep::ParallelPageReads {
                    file: f,
                    pages: vec![],
                    concurrency: 16,
                    per_item_cpu: ms(1),
                },
                TimedStep::Cpu(ms(2)),
            ],
        };
        let mut tl = Timeline::new(Disk::ssd(), 2);
        let r = tl.run(vec![prog]).remove(0);
        assert_eq!(r.latency(), ms(2));
    }

    #[test]
    fn staggered_arrivals_respected() {
        let progs = vec![
            InstanceProgram {
                arrival: SimTime::ZERO,
                steps: vec![TimedStep::Phase(Phase::Processing), TimedStep::Cpu(ms(5))],
            },
            InstanceProgram {
                arrival: SimTime::ZERO + ms(100),
                steps: vec![TimedStep::Phase(Phase::Processing), TimedStep::Cpu(ms(5))],
            },
        ];
        let mut tl = Timeline::new(Disk::ssd(), 1);
        let results = tl.run(progs);
        assert_eq!(results[0].end, SimTime::ZERO + ms(5));
        assert_eq!(results[1].arrival, SimTime::ZERO + ms(100));
        assert_eq!(results[1].end, SimTime::ZERO + ms(105));
        assert_eq!(results[1].latency(), ms(5));
    }

    #[test]
    fn zero_step_program_completes_instantly() {
        let mut tl = Timeline::new(Disk::ssd(), 1);
        let r = tl
            .run(vec![InstanceProgram {
                arrival: SimTime::ZERO,
                steps: vec![],
            }])
            .remove(0);
        assert_eq!(r.latency(), SimDuration::ZERO);
    }

    #[test]
    fn direct_and_buffered_and_write_steps_advance_time() {
        let (fs, f) = files();
        let out = fs.create("out");
        let prog = InstanceProgram {
            arrival: SimTime::ZERO,
            steps: vec![
                TimedStep::Phase(Phase::FetchWs),
                TimedStep::DirectRead {
                    file: f,
                    offset: 0,
                    len: 8 * 1024 * 1024,
                    sequential: true,
                },
                TimedStep::BufferedRead {
                    file: f,
                    offset: 0,
                    len: 64 * 1024,
                },
                TimedStep::Write {
                    file: out,
                    offset: 0,
                    len: 1024 * 1024,
                },
            ],
        };
        let mut tl = Timeline::new(Disk::ssd(), 2);
        let r = tl.run(vec![prog]).remove(0);
        // 8MB direct ~10ms; buffered 64KB ~0.3ms; write 1MB ~2ms.
        let ms_total = r.latency().as_millis_f64();
        assert!((8.0..25.0).contains(&ms_total), "got {ms_total:.1} ms");
    }
}
