//! System-call numbers.
//!
//! The simulator uses the real x86-64 Linux syscall numbers so that traces,
//! eBPF filter programs, and analysis code read exactly like their real-world
//! counterparts (the paper's Listing 1 filters on `args->id != 232`, i.e.
//! `epoll_wait`).

use core::fmt;

/// An x86-64 Linux system-call number.
///
/// # Examples
///
/// ```
/// use kscope_syscalls::SyscallNo;
///
/// assert_eq!(SyscallNo::EPOLL_WAIT.raw(), 232);
/// assert_eq!(SyscallNo::EPOLL_WAIT.name(), "epoll_wait");
/// assert_eq!(SyscallNo::from_name("sendto"), Some(SyscallNo::SENDTO));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SyscallNo(u32);

macro_rules! syscall_table {
    ($(($const_name:ident, $num:expr, $name:literal)),+ $(,)?) => {
        impl SyscallNo {
            $(
                #[doc = concat!("The `", $name, "` system call (x86-64 number ", stringify!($num), ").")]
                pub const $const_name: SyscallNo = SyscallNo($num);
            )+

            /// The canonical name of this syscall, or `"unknown"` for numbers
            /// outside the table.
            pub fn name(self) -> &'static str {
                match self.0 {
                    $($num => $name,)+
                    _ => "unknown",
                }
            }

            /// Looks up a syscall by canonical name.
            pub fn from_name(name: &str) -> Option<SyscallNo> {
                match name {
                    $($name => Some(SyscallNo($num)),)+
                    _ => None,
                }
            }

            /// All syscalls known to the table, in numeric order.
            pub fn all() -> &'static [SyscallNo] {
                const ALL: &[SyscallNo] = &[$(SyscallNo($num),)+];
                ALL
            }
        }
    };
}

// Subset of the x86-64 syscall table relevant to request-response servers:
// I/O, polling, socket lifecycle, threading, and common setup noise.
syscall_table![
    (READ, 0, "read"),
    (WRITE, 1, "write"),
    (OPEN, 2, "open"),
    (CLOSE, 3, "close"),
    (MMAP, 9, "mmap"),
    (BRK, 12, "brk"),
    (IOCTL, 16, "ioctl"),
    (WRITEV, 20, "writev"),
    (SELECT, 23, "select"),
    (NANOSLEEP, 35, "nanosleep"),
    (SOCKET, 41, "socket"),
    (CONNECT, 42, "connect"),
    (ACCEPT, 43, "accept"),
    (SENDTO, 44, "sendto"),
    (RECVFROM, 45, "recvfrom"),
    (SENDMSG, 46, "sendmsg"),
    (RECVMSG, 47, "recvmsg"),
    (SHUTDOWN, 48, "shutdown"),
    (BIND, 49, "bind"),
    (LISTEN, 50, "listen"),
    (CLONE, 56, "clone"),
    (EXIT, 60, "exit"),
    (FCNTL, 72, "fcntl"),
    (FUTEX, 202, "futex"),
    (EPOLL_WAIT, 232, "epoll_wait"),
    (EPOLL_CTL, 233, "epoll_ctl"),
    (OPENAT, 257, "openat"),
    (ACCEPT4, 288, "accept4"),
    (EPOLL_CREATE1, 291, "epoll_create1"),
];

impl SyscallNo {
    /// Creates a syscall number from its raw value.
    pub const fn from_raw(raw: u32) -> Self {
        SyscallNo(raw)
    }

    /// The raw numeric value (as passed in `args->id` at the tracepoint).
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for SyscallNo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // `pad`, not `write_str`, so width and alignment apply.
        let name = self.name();
        if name == "unknown" {
            f.pad(&format!("sys_{}", self.0))
        } else {
            f.pad(name)
        }
    }
}

impl From<u32> for SyscallNo {
    fn from(raw: u32) -> Self {
        SyscallNo(raw)
    }
}

impl From<SyscallNo> for u32 {
    fn from(no: SyscallNo) -> Self {
        no.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_numbers_match_linux_x86_64() {
        assert_eq!(SyscallNo::READ.raw(), 0);
        assert_eq!(SyscallNo::WRITE.raw(), 1);
        assert_eq!(SyscallNo::SELECT.raw(), 23);
        assert_eq!(SyscallNo::SENDTO.raw(), 44);
        assert_eq!(SyscallNo::RECVFROM.raw(), 45);
        assert_eq!(SyscallNo::SENDMSG.raw(), 46);
        assert_eq!(SyscallNo::RECVMSG.raw(), 47);
        assert_eq!(SyscallNo::EPOLL_WAIT.raw(), 232);
    }

    #[test]
    fn name_round_trip() {
        for &no in SyscallNo::all() {
            assert_eq!(SyscallNo::from_name(no.name()), Some(no), "{no}");
        }
    }

    #[test]
    fn unknown_numbers_display_numerically() {
        let no = SyscallNo::from_raw(999);
        assert_eq!(no.name(), "unknown");
        assert_eq!(no.to_string(), "sys_999");
    }

    #[test]
    fn display_honours_width_and_alignment() {
        use crate::{SyscallFamily, SyscallRole};
        assert_eq!(format!("{:<8}|", SyscallNo::READ), "read    |");
        assert_eq!(format!("{:>9}|", SyscallNo::from_raw(999)), "  sys_999|");
        assert_eq!(format!("{:^6}|", SyscallFamily::Poll), " poll |");
        assert_eq!(format!("{:>7}|", SyscallRole::Send), "   send|");
        // Precision truncates, as for `str`.
        assert_eq!(format!("{:.3}", SyscallNo::EPOLL_WAIT), "epo");
    }

    #[test]
    fn table_is_sorted_and_unique() {
        let all = SyscallNo::all();
        for pair in all.windows(2) {
            assert!(pair[0] < pair[1]);
        }
    }

    #[test]
    fn raw_conversions() {
        let no: SyscallNo = 232u32.into();
        assert_eq!(no, SyscallNo::EPOLL_WAIT);
        assert_eq!(u32::from(no), 232);
    }
}
