//! The Metadata Catalog (MCAT).
//!
//! SRB's MCAT manages the attributes of every system object: the logical
//! collection hierarchy, data-object records (size, storage resource,
//! replica count), and user accounts. This implementation keeps the whole
//! catalog under one short-held lock — catalog operations never block on the
//! network or disk, so a plain `parking_lot::Mutex` is safe here (see the
//! locking rule in `semplar_runtime::sync`).

use std::collections::{HashMap, HashSet};

use parking_lot::Mutex;

use crate::types::{ObjStat, SrbError, SrbResult};

/// A data-object record.
#[derive(Clone, Debug)]
pub struct ObjRecord {
    /// Vault-level object id.
    pub obj_id: u64,
    /// Current size in bytes.
    pub size: u64,
    /// Storage resource name.
    pub resource: String,
    /// Replica count (1 = primary only).
    pub replicas: u32,
}

#[derive(Default)]
struct McatInner {
    collections: HashSet<String>,
    objects: HashMap<String, ObjRecord>,
    users: HashMap<String, String>,
    next_obj: u64,
}

/// The metadata catalog service.
pub struct Mcat {
    inner: Mutex<McatInner>,
}

impl McatInner {
    /// Insert a fresh object record at `path` (already validated).
    fn insert_obj(&mut self, path: &str, resource: &str) -> SrbResult<&ObjRecord> {
        if self.objects.contains_key(path) || self.collections.contains(path) {
            return Err(SrbError::AlreadyExists(path.to_string()));
        }
        let parent = parent_of(path).ok_or_else(|| SrbError::InvalidArg(path.to_string()))?;
        if !self.collections.contains(parent) {
            return Err(SrbError::NoSuchCollection(parent.to_string()));
        }
        let id = self.next_obj;
        self.next_obj += 1;
        Ok(self.objects.entry(path.to_string()).or_insert(ObjRecord {
            obj_id: id,
            size: 0,
            resource: resource.to_string(),
            replicas: 1,
        }))
    }
}

fn parent_of(path: &str) -> Option<&str> {
    let p = path.rfind('/')?;
    Some(if p == 0 { "/" } else { &path[..p] })
}

fn validate(path: &str) -> SrbResult<()> {
    if !path.starts_with('/') || (path.len() > 1 && path.ends_with('/')) || path.contains("//") {
        return Err(SrbError::InvalidArg(format!("bad path {path:?}")));
    }
    Ok(())
}

impl Default for Mcat {
    fn default() -> Self {
        Self::new()
    }
}

impl Mcat {
    /// A catalog containing only the root collection `/`.
    pub fn new() -> Mcat {
        let mut inner = McatInner::default();
        inner.collections.insert("/".to_string());
        Mcat {
            inner: Mutex::new(inner),
        }
    }

    /// Register a user account.
    pub fn add_user(&self, user: &str, password: &str) {
        self.inner
            .lock()
            .users
            .insert(user.to_string(), password.to_string());
    }

    /// Check credentials.
    pub fn authenticate(&self, user: &str, password: &str) -> SrbResult<()> {
        match self.inner.lock().users.get(user) {
            Some(p) if p == password => Ok(()),
            _ => Err(SrbError::PermissionDenied),
        }
    }

    /// Create a collection; the parent must already exist.
    pub fn mk_coll(&self, path: &str) -> SrbResult<()> {
        validate(path)?;
        let mut g = self.inner.lock();
        if g.collections.contains(path) || g.objects.contains_key(path) {
            return Err(SrbError::AlreadyExists(path.to_string()));
        }
        let parent = parent_of(path).ok_or_else(|| SrbError::InvalidArg(path.to_string()))?;
        if !g.collections.contains(parent) {
            return Err(SrbError::NoSuchCollection(parent.to_string()));
        }
        g.collections.insert(path.to_string());
        Ok(())
    }

    /// Remove an empty collection.
    pub fn rm_coll(&self, path: &str) -> SrbResult<()> {
        validate(path)?;
        if path == "/" {
            return Err(SrbError::InvalidArg("cannot remove /".into()));
        }
        let mut g = self.inner.lock();
        if !g.collections.contains(path) {
            return Err(SrbError::NoSuchCollection(path.to_string()));
        }
        let prefix = format!("{path}/");
        let busy = g.collections.iter().any(|c| c.starts_with(&prefix))
            || g.objects.keys().any(|o| o.starts_with(&prefix));
        if busy {
            return Err(SrbError::InvalidArg(format!("collection {path} not empty")));
        }
        g.collections.remove(path);
        Ok(())
    }

    /// Register a new data object on `resource`, returning its vault id.
    pub fn create_obj(&self, path: &str, resource: &str) -> SrbResult<u64> {
        validate(path)?;
        Ok(self.inner.lock().insert_obj(path, resource)?.obj_id)
    }

    /// Open-or-create in one step: the record at `path`, registering a new
    /// one on `resource` if none exists. The flag is `true` when this call
    /// created it. Both steps run under one catalog lock, so sessions racing
    /// to create the same path all get the same object.
    pub fn create_or_lookup(&self, path: &str, resource: &str) -> SrbResult<(ObjRecord, bool)> {
        validate(path)?;
        let mut g = self.inner.lock();
        match g.objects.get(path) {
            Some(rec) => Ok((rec.clone(), false)),
            None => Ok((g.insert_obj(path, resource)?.clone(), true)),
        }
    }

    /// Look up a data object.
    pub fn lookup(&self, path: &str) -> SrbResult<ObjRecord> {
        self.inner
            .lock()
            .objects
            .get(path)
            .cloned()
            .ok_or_else(|| SrbError::NotFound(path.to_string()))
    }

    /// Grow the recorded size of an object to at least `size`.
    pub fn update_size(&self, path: &str, size: u64) -> SrbResult<()> {
        let mut g = self.inner.lock();
        let rec = g
            .objects
            .get_mut(path)
            .ok_or_else(|| SrbError::NotFound(path.to_string()))?;
        rec.size = rec.size.max(size);
        Ok(())
    }

    /// Record one more replica of an object.
    pub fn add_replica(&self, path: &str) -> SrbResult<()> {
        let mut g = self.inner.lock();
        let rec = g
            .objects
            .get_mut(path)
            .ok_or_else(|| SrbError::NotFound(path.to_string()))?;
        rec.replicas += 1;
        Ok(())
    }

    /// Remove a data object record, returning the vault id to free.
    pub fn unlink(&self, path: &str) -> SrbResult<u64> {
        self.inner
            .lock()
            .objects
            .remove(path)
            .map(|r| r.obj_id)
            .ok_or_else(|| SrbError::NotFound(path.to_string()))
    }

    /// `stat` metadata for an object.
    pub fn stat(&self, path: &str) -> SrbResult<ObjStat> {
        let rec = self.lookup(path)?;
        Ok(ObjStat {
            path: path.to_string(),
            size: rec.size,
            resource: rec.resource,
            replicas: rec.replicas,
        })
    }

    /// Immediate children (collections and objects) of a collection.
    pub fn list(&self, path: &str) -> SrbResult<Vec<String>> {
        validate(path)?;
        let g = self.inner.lock();
        if !g.collections.contains(path) {
            return Err(SrbError::NoSuchCollection(path.to_string()));
        }
        let prefix = if path == "/" {
            "/".to_string()
        } else {
            format!("{path}/")
        };
        let mut out: Vec<String> = g
            .collections
            .iter()
            .chain(g.objects.keys())
            .filter(|p| {
                p.starts_with(&prefix) && p.len() > prefix.len() && !p[prefix.len()..].contains('/')
            })
            .cloned()
            .collect();
        out.sort();
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collections_require_parents() {
        let m = Mcat::new();
        assert_eq!(
            m.mk_coll("/a/b"),
            Err(SrbError::NoSuchCollection("/a".into()))
        );
        m.mk_coll("/a").unwrap();
        m.mk_coll("/a/b").unwrap();
        assert_eq!(m.mk_coll("/a"), Err(SrbError::AlreadyExists("/a".into())));
    }

    #[test]
    fn object_lifecycle() {
        let m = Mcat::new();
        m.mk_coll("/home").unwrap();
        let id = m.create_obj("/home/data", "disk0").unwrap();
        assert_eq!(m.lookup("/home/data").unwrap().obj_id, id);
        m.update_size("/home/data", 100).unwrap();
        m.update_size("/home/data", 50).unwrap(); // never shrinks
        assert_eq!(m.stat("/home/data").unwrap().size, 100);
        assert_eq!(m.unlink("/home/data").unwrap(), id);
        assert!(matches!(m.lookup("/home/data"), Err(SrbError::NotFound(_))));
    }

    #[test]
    fn duplicate_objects_rejected() {
        let m = Mcat::new();
        m.mk_coll("/c").unwrap();
        m.create_obj("/c/x", "r").unwrap();
        assert!(matches!(
            m.create_obj("/c/x", "r"),
            Err(SrbError::AlreadyExists(_))
        ));
    }

    #[test]
    fn racing_create_or_lookup_yields_one_object() {
        const N: usize = 8;
        let m = std::sync::Arc::new(Mcat::new());
        m.mk_coll("/c").unwrap();
        let start = std::sync::Arc::new(std::sync::Barrier::new(N));
        let racers: Vec<_> = (0..N)
            .map(|_| {
                let (m, start) = (m.clone(), start.clone());
                std::thread::spawn(move || {
                    start.wait();
                    m.create_or_lookup("/c/x", "r").unwrap()
                })
            })
            .collect();
        let got: Vec<(ObjRecord, bool)> = racers.into_iter().map(|h| h.join().unwrap()).collect();
        let id = got[0].0.obj_id;
        assert!(
            got.iter().all(|(r, _)| r.obj_id == id),
            "racers saw different objects"
        );
        assert_eq!(got.iter().filter(|(_, created)| *created).count(), 1);
        assert_eq!(m.list("/c").unwrap(), vec!["/c/x"]);
        assert_eq!(m.lookup("/c/x").unwrap().obj_id, id);
    }

    #[test]
    fn listing_shows_direct_children_only() {
        let m = Mcat::new();
        m.mk_coll("/c").unwrap();
        m.mk_coll("/c/sub").unwrap();
        m.create_obj("/c/file", "r").unwrap();
        m.create_obj("/c/sub/deep", "r").unwrap();
        assert_eq!(m.list("/c").unwrap(), vec!["/c/file", "/c/sub"]);
        assert_eq!(m.list("/").unwrap(), vec!["/c"]);
    }

    #[test]
    fn rm_coll_refuses_nonempty() {
        let m = Mcat::new();
        m.mk_coll("/c").unwrap();
        m.create_obj("/c/x", "r").unwrap();
        assert!(m.rm_coll("/c").is_err());
        m.unlink("/c/x").unwrap();
        m.rm_coll("/c").unwrap();
        assert!(m.list("/c").is_err());
    }

    #[test]
    fn path_validation() {
        let m = Mcat::new();
        assert!(m.mk_coll("relative").is_err());
        assert!(m.mk_coll("/trailing/").is_err());
        assert!(m.mk_coll("/dou//ble").is_err());
        assert!(m.rm_coll("/").is_err());
    }

    #[test]
    fn auth_checks_credentials() {
        let m = Mcat::new();
        m.add_user("alin", "hpdc06");
        assert!(m.authenticate("alin", "hpdc06").is_ok());
        assert_eq!(
            m.authenticate("alin", "wrong"),
            Err(SrbError::PermissionDenied)
        );
        assert_eq!(
            m.authenticate("nobody", "x"),
            Err(SrbError::PermissionDenied)
        );
    }
}
