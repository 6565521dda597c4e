//! CPU time from the kernel's scheduler accounting, read with
//! `clock_gettime` at nanosecond resolution. It leaves out the time the
//! hypervisor gives this machine's CPUs to other guests, and the process
//! clock keeps the time of threads that have already exited.

use std::os::raw::{c_int, c_long};

/// `struct timespec` of Linux: `time_t` and the nanoseconds are `long`.
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
}

const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

/// CPU seconds of the calling thread.
pub fn thread_s() -> f64 {
    read(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU seconds of the whole process, exited threads included.
pub fn process_s() -> f64 {
    read(CLOCK_PROCESS_CPUTIME_ID)
}

fn read(clock: c_int) -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the call.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

#[cfg(test)]
mod tests {
    #[test]
    fn busy_work_advances_thread_and_process_time() {
        let (t0, p0) = (super::thread_s(), super::process_s());
        let start = std::time::Instant::now();
        let mut x = 0u64;
        while start.elapsed().as_millis() < 100 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(1));
        }
        let (t1, p1) = (super::thread_s(), super::process_s());
        assert!(t1 - t0 > 0.05, "thread clock advanced {} s", t1 - t0);
        assert!(p1 - p0 >= t1 - t0, "process clock behind the thread's");
    }

    #[test]
    fn process_time_keeps_exited_threads() {
        let p0 = super::process_s();
        let worker = std::thread::spawn(|| {
            let start = std::time::Instant::now();
            let mut x = 0u64;
            while start.elapsed().as_millis() < 100 {
                x = std::hint::black_box(x.wrapping_add(1));
            }
            super::thread_s()
        });
        let spent = worker.join().expect("worker");
        assert!(super::process_s() - p0 >= spent);
    }
}
