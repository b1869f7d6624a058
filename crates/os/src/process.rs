//! Processes: credentials, page tables, PASID, file descriptors.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use bypassd_ext4::layout::Ino;
use bypassd_hw::page_table::AddressSpace;
use bypassd_hw::types::{Pasid, Vba};

/// A process identifier.
pub type Pid = u64;

/// A file descriptor.
pub type Fd = i32;

/// Per-open state.
#[derive(Debug, Clone)]
pub struct OpenFile {
    /// Target inode.
    pub ino: Ino,
    /// Readable.
    pub read: bool,
    /// Writable.
    pub write: bool,
    /// O_DIRECT.
    pub direct: bool,
    /// This open was counted as a kernel-interface open in the FS
    /// (affects the sharing policy, §4.5.2).
    pub counted_kernel: bool,
    /// This open holds an fmap mapping (BypassD interface).
    pub mapped_vba: Option<Vba>,
    /// Data was read through this open (atime update at close, §4.4).
    pub did_read: bool,
    /// Data was written through this open (mtime update at close, §4.4).
    pub did_write: bool,
}

/// A simulated process.
pub struct Process {
    /// Identifier.
    pub pid: Pid,
    /// User id.
    pub uid: u32,
    /// Group id.
    pub gid: u32,
    /// Page tables (shared with the FS mapping registry and the IOMMU).
    pub asid: Arc<Mutex<AddressSpace>>,
    /// The PASID its user queues are bound to.
    pub pasid: Pasid,
    /// Mount-namespace root prefix ("" = host namespace). Containers get
    /// an isolated view of the file system (§5.2): every path the
    /// process names is resolved under this prefix.
    pub fs_root: String,
    /// Open files.
    pub fds: HashMap<Fd, OpenFile>,
    next_fd: Fd,
}

impl Process {
    /// Creates a process with fresh page tables.
    pub fn new(pid: Pid, uid: u32, gid: u32, asid: AddressSpace) -> Self {
        Process {
            pid,
            uid,
            gid,
            asid: Arc::new(Mutex::new(asid)),
            pasid: Pasid(pid as u32),
            fs_root: String::new(),
            fds: HashMap::new(),
            next_fd: 3, // 0..2 reserved, as tradition demands
        }
    }

    /// Installs an open file, returning its descriptor.
    pub fn install_fd(&mut self, of: OpenFile) -> Fd {
        let fd = self.next_fd;
        self.next_fd += 1;
        self.fds.insert(fd, of);
        fd
    }

    /// Looks up an open file.
    pub fn fd(&self, fd: Fd) -> Option<&OpenFile> {
        self.fds.get(&fd)
    }

    /// Looks up an open file mutably.
    pub fn fd_mut(&mut self, fd: Fd) -> Option<&mut OpenFile> {
        self.fds.get_mut(&fd)
    }

    /// Removes an open file.
    pub fn remove_fd(&mut self, fd: Fd) -> Option<OpenFile> {
        self.fds.remove(&fd)
    }
}

impl std::fmt::Debug for Process {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Process")
            .field("pid", &self.pid)
            .field("uid", &self.uid)
            .field("open_fds", &self.fds.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bypassd_hw::mem::PhysMem;

    fn proc() -> Process {
        let mem = PhysMem::new();
        Process::new(7, 100, 100, AddressSpace::new(&mem))
    }

    fn open_file() -> OpenFile {
        OpenFile {
            ino: Ino(2),
            read: true,
            write: false,
            direct: true,
            counted_kernel: false,
            mapped_vba: None,
            did_read: false,
            did_write: false,
        }
    }

    #[test]
    fn fd_numbers_start_at_three() {
        let mut p = proc();
        assert_eq!(p.install_fd(open_file()), 3);
        assert_eq!(p.install_fd(open_file()), 4);
    }

    #[test]
    fn fd_lookup_and_remove() {
        let mut p = proc();
        let fd = p.install_fd(open_file());
        assert!(p.fd(fd).is_some());
        p.fd_mut(fd).unwrap().did_read = true;
        assert!(p.fd(fd).unwrap().did_read);
        assert!(p.remove_fd(fd).is_some());
        assert!(p.fd(fd).is_none());
    }

    #[test]
    fn pasid_derived_from_pid() {
        let p = proc();
        assert_eq!(p.pasid, Pasid(7));
    }
}
